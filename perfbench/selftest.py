"""Self-test of the benchmark, on shrunken workloads.

    python3 perfbench/selftest.py

For every workload it makes one --trace 0 run and two --trace 1 runs of
run.py --tiny, and checks that each run reports correct rows only, that it
reports exactly the metrics BENCHMARK.json declares with their units, and
that the machine-independent counts of the two traced runs are identical.
Last, it checks that run.py fails without a result in a directory that
holds only BENCHMARK.json and perfbench/.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads

# Counts that depend only on the inputs, never on the machine.
RATIOS_OF_COUNTS = ("montecarlo.advance_per_trial", "goals.evaluate_per_select")

problems: list[str] = []


def check(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def result(workload: str, trace: int, cwd=run.ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        traced = []
        for trace, kind in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            rc, out = result(workload, trace)
            where = f"{workload} --trace {trace}"
            check(rc == 0 and out is not None, f"{where}: exit {rc}, result {out!r}")
            if out is None:
                continue
            check(out["correct"] and out["failed"] == 0 and out["attempted"] > 0,
                  f"{where}: rows failed their checks")
            units = {m["name"]: m["unit"] for m in declared[kind]}
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            check(got == units, f"{where}: metrics or units differ from BENCHMARK.json")
            if trace:
                traced.append(out["metrics"])
        if len(traced) == 2:
            counts = [m["name"] for m in declared["per_layer"]
                      if m["unit"] == "count" or m["name"] in RATIOS_OF_COUNTS]
            for name in counts:
                a, b = (m[name]["value"] for m in traced)
                check(a == b, f"{workload}: {name} is {a} in one traced run, {b} in the other")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        rc, out = result("exact-corpus", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(rc != 0 and out is None,
          f"without src/ run.py should fail without a result; exit {rc}, result {out!r}")

    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
