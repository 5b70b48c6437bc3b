"""Command-line harness.

Subcommands: gen (write an instance file), run (evaluate strategies over
instance files into a CSV), oracle (print the exact optimum), transcript
(print one run as JSON).  Exit codes: 0 success, 1 usage or input error,
2 bound violation under --assert-bounds, 3 oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from typing import Optional, Sequence

from .bench import (GeneratorSpec, check_bounds, generate, run_experiment,
                    write_csv)
from .core import Instance, InstanceError
from .oracle import DEFAULT_MAX_STATES, BudgetExceededError, optimal_expected_cost
from .strategies import STRATEGIES, make_strategy, run_strategy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUNDS = 2
EXIT_BUDGET = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quickcount",
        description="Sequential vote inspection at minimum expected cost.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--kind", choices=("random", "adversarial"), required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, default=None,
                     help="candidate count (defaults to 2 for adversarial)")
    gen.add_argument("--epsilon", type=float, default=None,
                     help="adversarial mixing parameter in (0, 0.5)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="evaluate strategies over instance files")
    run.add_argument("--instances", required=True,
                     help="glob pattern of instance JSON files")
    run.add_argument("--algos", required=True,
                     help=f"comma-separated algorithm names from {sorted(STRATEGIES)}")
    run.add_argument("--method", choices=("exact", "mc"), required=True)
    run.add_argument("--trials", type=int, default=10_000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    run.add_argument("--assert-bounds", action="store_true",
                     help="exit nonzero if any exact ratio exceeds its envelope")
    run.add_argument("--no-timestamp", action="store_true",
                     help="omit the timestamp header for byte-identical reruns")
    run.add_argument("--out", required=True)

    oracle = sub.add_parser("oracle", help="print the exact optimal expected cost")
    oracle.add_argument("--instance", required=True)
    oracle.add_argument("--objective", choices=("abs", "rel"), required=True)
    oracle.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)

    transcript = sub.add_parser("transcript", help="print one run as JSON")
    transcript.add_argument("--instance", required=True)
    transcript.add_argument("--algo", required=True, choices=sorted(STRATEGIES))
    transcript.add_argument("--realization", required=True,
                            help="comma-separated vote values, one per voter")
    return parser


def _cmd_gen(args) -> int:
    d = args.d
    if d is None:
        if args.kind != "adversarial":
            print("gen: --d is required for random instances", file=sys.stderr)
            return EXIT_USAGE
        d = 2
    spec = GeneratorSpec(kind=args.kind, n=args.n, d=d, seed=args.seed,
                         epsilon=args.epsilon)
    generate(spec).dump(args.out)
    return EXIT_OK


def _unwritable(path: str) -> Optional[str]:
    """Why no file can be written at path, or None if one can."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        return f"no directory {folder!r}"
    if os.path.isdir(path):
        return "it is a directory"
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        return "permission denied"
    return None


def _cmd_run(args) -> int:
    # Checked before any row is evaluated, so no run's rows are lost at
    # the end for want of a place to write them.
    reason = _unwritable(args.out)
    if reason is not None:
        print(f"run: cannot write {args.out!r}: {reason}", file=sys.stderr)
        return EXIT_USAGE
    paths = sorted(glob.glob(args.instances))
    if not paths:
        print(f"run: no instance files match {args.instances!r}", file=sys.stderr)
        return EXIT_USAGE
    algos = [a for a in (s.strip() for s in args.algos.split(",")) if a]
    rows, warnings = run_experiment(paths, algos, method=args.method,
                                    trials=args.trials, seed=args.seed,
                                    max_states=args.max_states)
    for note in warnings:
        print(f"warning: {note}", file=sys.stderr)
    write_csv(rows, args.out, timestamp=not args.no_timestamp)
    if args.assert_bounds:
        violations = check_bounds(rows)
        if violations:
            for line in violations:
                print(f"bound violation: {line}", file=sys.stderr)
            return EXIT_BOUNDS
    return EXIT_OK


def _cmd_oracle(args) -> int:
    instance = Instance.load(args.instance)
    try:
        value = optimal_expected_cost(instance, args.objective, args.max_states)
    except BudgetExceededError as exc:
        print(f"oracle: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    print(repr(value))
    return EXIT_OK


def _cmd_transcript(args) -> int:
    instance = Instance.load(args.instance)
    try:
        realization = [int(tok) for tok in args.realization.split(",")]
    except ValueError:
        print("transcript: realization must be comma-separated integers",
              file=sys.stderr)
        return EXIT_USAGE
    strategy = make_strategy(args.algo, instance)
    print(run_strategy(strategy, realization).to_json())
    return EXIT_OK


_COMMANDS = {"gen": _cmd_gen, "run": _cmd_run, "oracle": _cmd_oracle,
             "transcript": _cmd_transcript}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (InstanceError, ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
