"""The measured part of one benchmark run, in a fresh process.

Imports quickcount from the checkout's src/, writes the workload's corpus
with bench.generate and Instance.dump, then evaluates it through the same
path as `quickcount run` (cli.main), one call per unit of the plan (an
instance file, or one algo on it; see workloads.Plan.units).  run_experiment
handles every instance, and every objective of an instance, on its own, so
the rows are those of one call over the whole corpus.

It passes over all units at least --min-passes times, and then while the
next pass is expected to end within --seconds of the first one's start.
Pass p writes the rows of unit k to out/<p>/<k>.csv in the work directory.
No call leaves state behind for the next (quickcount keeps no cache between
calls), so every pass does the same work; timing each unit on its own lets
the parent take, for every unit, its fastest evaluation in the run.  The
host slows each vCPU in spells of its own, so the units take turns on the
vCPUs the process may use, each unit on another one in the next pass.
Prints one JSON line:

    ready    time.monotonic() just before the first cli.main call; the
             parent, which noted the same clock before starting this
             process, turns it into the set-up time
    walls    per pass, the seconds spent in each cli.main call, in
             plan.units() order
    rc       0 if every call returned 0, else the first other exit code
    rss_mb   peak resident memory of this process
    layers   per-layer metrics (only with --trace)

With --setup-only it stops after the corpus is written.  Run as
`python3 perfbench/worker.py --workload NAME --seed N --workdir DIR`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--trace", help="write spans to this JSON file")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import quickcount
    from quickcount import bench, cli

    import workloads

    context = contextlib.nullcontext()
    if args.trace:
        from tracing import Tracer
        context = Tracer(quickcount)
    with context as tracer:
        if tracer is not None:
            setup = tracer.open("setup")
        plan = workloads.plan(args.workload, args.seed, args.tiny)
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        for spec in plan.instances:
            instance = bench.generate(bench.GeneratorSpec(
                kind=spec.kind, n=spec.n, d=spec.d, seed=spec.seed,
                epsilon=spec.epsilon))
            instance.dump(str(workdir / f"{spec.stem}.json"))
        if tracer is not None:
            tracer.close(setup)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        if tracer is not None:
            run = tracer.open("run")
        walls, rc = [], 0
        cpus = sorted(os.sched_getaffinity(0))
        start = time.monotonic()
        while True:
            outdir = workdir / "out" / str(len(walls))
            outdir.mkdir(parents=True)
            times = []
            for k, (stem, algos) in enumerate(plan.units()):
                os.sched_setaffinity(0, {cpus[(k + len(walls)) % len(cpus)]})
                argv = ["run", "--instances", str(workdir / f"{stem}.json"),
                        "--algos", ",".join(algos), *plan.run_args, "--no-timestamp",
                        "--out", str(outdir / f"{k}.csv")]
                t0 = time.perf_counter()
                code = cli.main(argv)
                times.append(time.perf_counter() - t0)
                rc = rc or code
            walls.append(times)
            elapsed = time.monotonic() - start
            if len(walls) >= args.min_passes and \
                    elapsed * (len(walls) + 1) / len(walls) > args.seconds:
                break
        if tracer is not None:
            tracer.close(run)
    out = {"ready": ready, "walls": walls, "rc": rc,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.dump(args.trace)
        out["layers"] = tracer.layer_metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
