"""Instance generation and the benchmark experiment runner."""

from __future__ import annotations

import csv
import datetime as _dt
import io
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Instance, InstanceError, _integer
from .oracle import (DEFAULT_MAX_STATES, BudgetExceededError,
                     EvaluationBudgetError, _check_seed, evaluate_strategy,
                     optimal_expected_cost)
from .strategies import STRATEGIES, make_strategy

CSV_COLUMNS = ("instance_id", "n", "d", "algo", "method", "expected_cost",
               "opt_cost", "ratio", "trials", "seed")

# Proven expected-cost envelopes, as multiples of the adaptive optimum.
ENVELOPES = {
    "abs4": 4.0,
    "abs6_threeround": 6.0,
    "abs10_tworound": 10.0,
    "rel8": 8.0,
}

# Slack for floating-point rounding when a ratio is checked against its envelope.
_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: seeded random instances or the adversarial family.

    The adversarial family (two candidates, odd n) mixes nearly-decided
    cheap votes, nearly-decided expensive votes leaning the other way, and
    one expensive tiebreaker; it separates cheapest-first inspection from
    the cost-sensitive strategies by a factor of roughly
    (n/2) / (1 + n**2 * epsilon / 4), which is about n/2 only while
    n**2 * epsilon is small (at n=101, epsilon=1e-3: about 49.8 against
    an optimum of 3.43, a factor of about 14.5).
    """

    kind: str
    n: int
    d: int
    seed: int = 0
    epsilon: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("random", "adversarial"):
            raise InstanceError(f"kind: expected 'random' or 'adversarial', got {self.kind!r}")
        for field in ("n", "d", "seed"):
            _integer(field, getattr(self, field))
        eps = self.epsilon
        if eps is not None and (isinstance(eps, bool) or not isinstance(eps, numbers.Real)):
            raise InstanceError(f"epsilon: expected a number, got {eps!r}")
        if self.kind == "random":
            if self.n < 1:
                raise InstanceError(f"n: must be >= 1, got {self.n}")
            if self.d < 2:
                raise InstanceError(f"d: must be >= 2, got {self.d}")
            if self.seed < 0:
                raise InstanceError(f"seed: must be >= 0, got {self.seed}")
        else:
            if self.d != 2:
                raise InstanceError("adversarial instances have exactly 2 candidates")
            if self.n < 3 or self.n % 2 == 0:
                raise InstanceError(f"n: adversarial instances need odd n >= 3, got {self.n}")
            if eps is None or not 0.0 < eps < 0.5:
                raise InstanceError(f"epsilon: must lie in (0, 0.5), got {eps!r}")


def generate(spec: GeneratorSpec) -> Instance:
    """Build the instance a GeneratorSpec describes, deterministically from its seed."""
    if spec.kind == "adversarial":
        eps = float(spec.epsilon)
        half = (spec.n - 1) // 2
        costs = [eps] * half + [1.0 - eps] * half + [1.0]
        p_one = [1.0 - eps] * half + [eps] * half + [1.0 - eps]
        probs = [(p, 1.0 - p) for p in p_one]
        return Instance(n=spec.n, d=2, costs=tuple(costs), probs=tuple(probs))
    rng = np.random.default_rng(spec.seed)
    costs = tuple(1.0 - rng.random() for _ in range(spec.n))  # uniform in (0, 1]
    rows = []
    for _ in range(spec.n):
        while True:
            row = rng.dirichlet(np.ones(spec.d))
            if row.min() > 1e-9:
                break
        rows.append(tuple(float(p) for p in row))
    return Instance(n=spec.n, d=spec.d, costs=costs, probs=tuple(rows))


@dataclass(frozen=True)
class ResultRow:
    instance_id: str
    n: int
    d: int
    algo: str
    method: str
    expected_cost: float
    opt_cost: Optional[float] = None
    ratio: Optional[float] = None
    trials: Optional[int] = None
    seed: Optional[int] = None


def run_experiment(instance_paths: Sequence[str], algos: Sequence[str],
                   method: str = "exact", trials: int = 10_000, seed: int = 0,
                   max_states: int = DEFAULT_MAX_STATES,
                   ) -> tuple[list[ResultRow], list[str]]:
    """One row per (instance, algo), in deterministic input order.

    Returns (rows, warnings).  A row's ratio is its EvaluationReport's, so
    1.0 where OPT and the strategy's cost are both 0.  A file that cannot
    be read or is not a valid instance is skipped with a warning and the
    other files' rows are kept; InstanceError is raised only when no file
    loads.  Instances larger than the oracle budget get empty opt_cost and
    ratio columns plus a warning instead of failing the whole run; an algo
    that cannot handle an instance, or whose exact evaluation reaches more
    than oracle.EXACT_MAX_STATES distinct states, loses that row, with a
    warning.  An empty algo list, unknown algo names, a negative
    max_states and, for a Monte Carlo run, fewer than one trial or a seed
    outside [0, 2**128) raise ValueError before any work.
    """
    if method not in ("exact", "mc"):
        raise ValueError(f"method must be 'exact' or 'mc', got {method!r}")
    if method == "mc":
        if trials < 1:
            raise ValueError("trials must be >= 1")
        _check_seed(seed)
    if max_states < 0:
        raise ValueError(f"max_states must be >= 0, got {max_states}")
    if not algos:
        raise ValueError(f"no algos given; choose from {sorted(STRATEGIES)}")
    unknown = [algo for algo in algos if algo not in STRATEGIES]
    if unknown:
        raise ValueError(f"unknown strategy {unknown[0]!r}; choose from {sorted(STRATEGIES)}")
    rows: list[ResultRow] = []
    warnings: list[str] = []
    unloaded: list[str] = []
    for path in instance_paths:
        try:
            instance = Instance.load(path)
        except (InstanceError, OSError) as exc:
            unloaded.append(str(exc))
            warnings.append(f"instance skipped ({exc})")
            continue
        instance_id = _stem(path)
        opt_cache: dict[str, Optional[float]] = {}
        for algo in algos:
            try:
                strategy = make_strategy(algo, instance)
            except ValueError as exc:
                warnings.append(f"{path}: {algo} skipped ({exc})")
                continue
            # With two candidates both certificates decide exactly the same
            # tallies (one tally above n/2, or no vote left), so the two
            # objectives share one optimum.
            objective = strategy.objective if instance.d > 2 else "abs"
            if objective not in opt_cache:
                try:
                    opt_cache[objective] = optimal_expected_cost(
                        instance, objective, max_states)
                except BudgetExceededError as exc:
                    opt_cache[objective] = None
                    warnings.append(f"{path}: optimum unavailable ({exc})")
            opt = opt_cache[objective]
            try:
                report = evaluate_strategy(strategy, method=method, trials=trials,
                                           seed=seed, opt_cost=opt)
            except EvaluationBudgetError as exc:
                warnings.append(f"{path}: {algo} skipped (exact evaluation: {exc})")
                continue
            rows.append(ResultRow(
                instance_id=instance_id, n=instance.n, d=instance.d, algo=algo,
                method=report.method, expected_cost=report.expected_cost,
                opt_cost=opt, ratio=report.ratio, trials=report.trials,
                seed=seed if method == "mc" else None))
    if unloaded and len(unloaded) == len(instance_paths):
        raise InstanceError(f"no instance file loads ({len(unloaded)} tried; "
                            f"the first: {unloaded[0]})")
    return rows, warnings


def check_bounds(rows: Sequence[ResultRow]) -> list[str]:
    """Exact-method rows whose ratio exceeds the proven envelope."""
    violations = []
    for row in rows:
        bound = ENVELOPES.get(row.algo)
        if bound is None or row.ratio is None or row.method != "exact":
            continue
        if row.ratio > bound + _BOUND_TOL:
            violations.append(f"{row.instance_id}/{row.algo}: ratio {row.ratio!r} "
                              f"exceeds {bound}")
    return violations


def _stem(path: str) -> str:
    name = path.replace("\\", "/").rsplit("/", 1)[-1]
    return name[:-5] if name.endswith(".json") else name


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: Sequence[ResultRow], timestamp: bool = True) -> str:
    """Render rows as CSV; identical bytes for identical rows apart from the
    suppressible timestamp header line.  Cells are quoted only where they
    need it, such as an instance_id with a comma."""
    out = io.StringIO()
    if timestamp:
        out.write(f"# generated {_dt.datetime.now(_dt.timezone.utc).isoformat()}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([_cell(getattr(row, col)) for col in CSV_COLUMNS] for row in rows)
    return out.getvalue()


def write_csv(rows: Sequence[ResultRow], path: str, timestamp: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(rows_to_csv(rows, timestamp=timestamp))
