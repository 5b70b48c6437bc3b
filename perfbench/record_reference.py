"""Record reference.json: a digest of every output row, per workload and seed.

    python3 perfbench/record_reference.py

Records seeds 0-10 of every workload.  run.py then requires each later
commit to reproduce these rows bit for bit on the recorded seeds (exact
costs, and Monte Carlo means for the same seed).  Record only on a commit
whose outputs are trusted; the rows are checked here the same way run.py
checks them, without a reference.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads

SEEDS = range(0, 11)


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))

    recorded: dict[str, dict[str, list[str]]] = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            workdir = run.WORK / f"reference-{workload}-seed{seed}"
            try:
                report = run.spawn(workload, seed, workdir, time.monotonic() + 600)
                if report is None or report["rc"] != 0:
                    print(f"{workload} seed {seed}: the run failed", file=sys.stderr)
                    return 1
                checker = run.RowChecker(workloads.plan(workload, seed), seed, None)
                lines = checker.check(workdir / "out" / "0")
                if checker.failed:
                    print(f"{workload} seed {seed}: rows fail their checks", file=sys.stderr)
                    return 1
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            recorded.setdefault(workload, {})[str(seed)] = [run.row_digest(line)
                                                            for line in lines]
            print(f"{workload} seed {seed}: {len(lines)} rows", flush=True)

    # One line per seed keeps the file short and its diffs readable.
    body = ",\n".join(
        f"  {json.dumps(workload)}: {{\n" + ",\n".join(
            f"    {json.dumps(seed)}: {json.dumps(digests)}"
            for seed, digests in seeds.items()) + "\n  }"
        for workload, seeds in recorded.items())
    run.REFERENCE.write_text("{\n" + body + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
