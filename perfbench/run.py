"""Benchmark of `quickcount run` on three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; quickcount is imported from its src/.
The workload runs in fresh worker processes (worker.py), so interpreter
start and import are part of the set-up time.

--trace 0 starts the worker once to fill the run's bytecode cache, then
SETUP_STARTS times for set-up alone, then once more to pass over the
workload's units (workloads.Plan.units) at least MIN_PASSES times and then
while the next pass is expected to end within S seconds of the first
start.  It reports the end-to-end metrics: median set-up time over the
counted starts; wall time of the evaluation as the sum, over the units, of
each unit's fastest evaluation in the run; peak memory.  --trace 1 makes
one pass without and one with the layer tracer (tracing.py) and reports
the per-layer metrics, including the tracing overhead.

Every row is checked: against the reference digests recorded for the seed
(reference.json), against the other passes of the same run, and, for
exact rows, against bench.check_bounds and the optimum.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

DEADLINE_S = 170.0  # a run must end within 180 s
# The host's speed swings by up to 2x in spells of seconds to minutes.  Each
# unit's fastest evaluation, over passes spread across the run, is what
# wall_s adds up; a median over passes would follow the spells.
MIN_PASSES = 3
SETUP_STARTS = 6  # set-up-only starts, for the setup_s median


# A fixed hash seed gives every worker the same dict and set layouts, which
# removes one source of run-to-run spread; results never depend on it.
# Workers must write bytecode to their cache (see spawn), whatever the caller's
# environment says.
WORKER_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
              "PYTHONHASHSEED": "0"}


class SetupError(RuntimeError):
    """The program could not be started; no result can be reported."""


def row_digest(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def spawn(workload: str, seed: int, workdir: Path, deadline: float, *,
          tiny: bool = False, setup_only: bool = False, seconds: float = 0.0,
          min_passes: int = 1, trace: Path | None = None) -> dict | None:
    """Run worker.py once and return its report plus setup_s, or None on failure."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir),
           "--seconds", str(seconds), "--min-passes", str(min_passes)]
    if tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    if trace is not None:
        cmd += ["--trace", str(trace)]
    shutil.rmtree(workdir / "out", ignore_errors=True)
    # Bytecode goes to the run's own cache, never to src/ and never read from
    # a __pycache__ left there by whatever ran before: the run's first start
    # compiles quickcount and the modules it imports, every later start reads
    # the same cache.
    env = {**WORKER_ENV, "PYTHONPYCACHEPREFIX": str(workdir / "pycache")}
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker stopped at the time limit", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: worker exited with {proc.returncode}\n{proc.stderr[-4000:]}",
              file=sys.stderr)
        return None
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    return report


def expected_rows(plan: workloads.Plan) -> list[tuple[str, str]]:
    """(instance_id, algo) of every row, in the order `quickcount run` writes them."""
    return [(stem, algo) for stem in plan.stems() for algo in plan.algos]


class RowChecker:
    """Counts rows whose output is wrong, across the passes of one run."""

    def __init__(self, plan: workloads.Plan, seed: int,
                 reference: list[str] | None) -> None:
        from quickcount import bench
        self.bench = bench
        self.columns = bench.CSV_COLUMNS
        self.plan = plan
        self.seed = seed
        self.expected = expected_rows(plan)
        if reference is not None and len(reference) != len(self.expected):
            raise RuntimeError("reference.json does not match the workload; re-record it")
        self.reference = reference
        self.first: list[str] | None = None
        self.attempted = 0
        self.failed = 0

    def read(self, pass_dir: Path) -> list[str] | None:
        """A pass's rows, from the CSV of each unit; None if one is bad."""
        rows = []
        for k in range(len(self.plan.units())):
            path = pass_dir / f"{k}.csv"
            lines = path.read_text(encoding="utf-8").splitlines() if path.is_file() else []
            if lines[:1] != [",".join(self.columns)]:
                return None
            rows += lines[1:]
        return rows

    def check(self, pass_dir: Path) -> list[str] | None:
        """Check one pass's rows and return them; None: the pass wrote none."""
        self.attempted += len(self.expected)
        lines = self.read(pass_dir)
        if lines is None:
            self._fail(len(self.expected), "missing or malformed CSV")
            return None
        if len(lines) != len(self.expected):
            self._fail(len(self.expected),
                       f"{len(lines)} rows instead of {len(self.expected)}")
            return lines
        if self.first is None:
            self.first = lines
        for i, ((instance_id, algo), line) in enumerate(zip(self.expected, lines)):
            problem = self._row_problem(i, instance_id, algo, line)
            if problem:
                self._fail(1, f"{instance_id}/{algo}: {problem}: {line}")
        return lines

    def _row_problem(self, i: int, instance_id: str, algo: str, line: str) -> str | None:
        cells = dict(zip(self.columns, next(csv.reader([line]))))
        if (cells.get("instance_id"), cells.get("algo")) != (instance_id, algo):
            return "row out of order"
        if self.reference is not None and row_digest(line) != self.reference[i]:
            return "differs from the reference recorded for this seed"
        if line != self.first[i]:
            return "differs between passes of the same run"
        cost = float(cells["expected_cost"])
        if not (math.isfinite(cost) and cost >= 0.0):
            return "expected cost is not a finite non-negative number"
        if self.plan.trials is not None:
            if cells["method"] != "monte-carlo" or cells["trials"] != str(self.plan.trials) \
                    or cells["seed"] != str(self.seed):
                return "not a Monte Carlo row with the workload's trials and seed"
            return None
        if cells["method"] != "exact":
            return "not an exact row"
        if cells["ratio"]:
            ratio = float(cells["ratio"])
            if ratio < 1.0 - 1e-9:
                return "costs less than the optimum"
            row = self.bench.ResultRow(instance_id, int(cells["n"]), int(cells["d"]),
                                       algo, "exact", cost, float(cells["opt_cost"]),
                                       ratio)
            if self.bench.check_bounds([row]):
                return "ratio exceeds the proven envelope"
        return None

    def _fail(self, rows: int, why: str) -> None:
        self.failed += rows
        print(f"check failed: {why}", file=sys.stderr)


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    k = len(samples) - 10
    if k < 1:
        return f"no percentile has 10 of {len(samples)} samples beyond it"
    return f"p{100 * k // len(samples)} {sorted(samples)[k - 1]:.3f} s"


def run_passes(args, checker, workdir: Path, deadline: float, **kw) -> dict:
    """One worker that passes over the workload; every pass's rows are checked."""
    report = spawn(args.workload, args.seed, workdir, deadline, tiny=args.tiny, **kw)
    if report is None:
        raise SetupError("the worker did not complete")
    for p in range(len(report["walls"])):
        checker.check(workdir / "out" / str(p))
    return report


def measure(args, plan, checker, workdir: Path, deadline: float) -> dict:
    """Set-up starts, then passes over the workload for about args.seconds."""
    start = time.monotonic()
    setups = []
    cpus = sorted(os.sched_getaffinity(0))
    for i in range(SETUP_STARTS + 1):
        # Like the units in worker.py, the starts take turns on the vCPUs.
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        probe = spawn(args.workload, args.seed, workdir, deadline, tiny=args.tiny,
                      setup_only=True)
        if probe is None:
            raise SetupError("the worker could not set up the workload")
        if i:  # the first start only fills the run's bytecode cache (see spawn)
            setups.append(probe["setup_s"])
    os.sched_setaffinity(0, cpus)
    report = run_passes(args, checker, workdir, deadline, min_passes=MIN_PASSES,
                        seconds=args.seconds - (time.monotonic() - start))
    setups.append(report["setup_s"])
    walls = report["walls"]
    totals = [sum(w) for w in walls]
    fastest = [min(times) for times in zip(*walls)]
    print(f"{args.workload}: {len(walls)} passes over {len(fastest)} units; "
          f"whole passes {', '.join(f'{t:.3f}' for t in totals)} s; "
          f"{tail(totals)}; setup_s {', '.join(f'{s:.3f}' for s in setups)}")
    return {"setup_s": statistics.median(setups),
            "wall_s": sum(fastest),
            "peak_rss_mb": report["rss_mb"]}


def trace(args, plan, checker, workdir: Path, deadline: float) -> dict:
    """One pass without and one with the tracer; the per-layer metrics."""
    WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
    trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
    plain = run_passes(args, checker, workdir, deadline)
    traced = run_passes(args, checker, workdir, deadline, trace=trace_path)
    metrics = traced["layers"]
    metrics["trace.overhead"] = sum(traced["walls"][0]) / sum(plain["walls"][0])
    print(f"{args.workload}: spans written to {trace_path.relative_to(ROOT)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workloads, for the self-test")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if not (ROOT / "src" / "quickcount" / "__init__.py").is_file():
        print("run.py: src/quickcount not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # leave src/ as checked out
    sys.path.insert(0, str(ROOT / "src"))

    plan = workloads.plan(args.workload, args.seed, args.tiny)
    reference = None
    if not args.tiny and REFERENCE.is_file():
        recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))
        reference = recorded.get(args.workload, {}).get(str(args.seed))
    checker = RowChecker(plan, args.seed, reference)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        run = trace if args.trace else measure
        metrics = run(args, plan, checker, workdir, deadline)
    except SetupError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                           f"both measured and declared in BENCHMARK.json")

    print(f"{args.workload} seed {args.seed}: reference "
          f"{'checked' if reference else 'not recorded for this seed'}; "
          f"failed_share {checker.failed / checker.attempted:.4g} share "
          f"({checker.failed} of {checker.attempted} rows)")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
