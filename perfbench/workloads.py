"""The benchmark's workloads: which instances each one generates, and how it runs them.

Every workload runs `quickcount run` over a generated corpus, one call per
unit (Plan.units): an instance file, or one algo on it.  Instances are
derived from the benchmark seed only, so the same seed gives the same
files; the program itself only ever sees the instance files.
NOTES.md records why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

EXACT_ALGOS = ("abs4", "abs6_threeround", "abs10_tworound", "rel8",
               "naive_abs", "naive_rel")
MC_ALGOS = ("abs4", "abs6_threeround", "abs10_tworound", "rel8", "naive_abs")

# The oracle budget mc-large runs with.  It equals the library default at
# the commit that introduced the benchmark and is passed explicitly, so a
# later change of the default cannot change what the workload does.
PINNED_MAX_STATES = 30_000


@dataclass(frozen=True)
class InstanceFile:
    """One generated instance file: its stem and GeneratorSpec fields."""

    stem: str
    kind: str
    n: int
    d: int
    seed: int = 0
    epsilon: float | None = None


@dataclass(frozen=True)
class Plan:
    """What one pass over a workload generates and runs."""

    instances: tuple[InstanceFile, ...]
    algos: tuple[str, ...]
    run_args: tuple[str, ...]  # `quickcount run` flags besides --instances/--algos/--out
    trials: int | None  # Monte Carlo trials per row, None for exact rows
    # Evaluate every algo of an instance in its own `quickcount run` call.  Only
    # for workloads where that repeats no work: each algo needs its own oracle
    # solve, or the oracle refuses every instance at once.
    split_algos: bool = False

    def stems(self) -> list[str]:
        """Instance file stems in the order `quickcount run` visits the files."""
        return [name[:-5] for name in sorted(spec.stem + ".json"
                                             for spec in self.instances)]

    def units(self) -> list[tuple[str, tuple[str, ...]]]:
        """(stem, algos) of each `quickcount run` call, in the order of the rows."""
        if self.split_algos:
            return [(stem, (algo,)) for stem in self.stems() for algo in self.algos]
        return [(stem, self.algos) for stem in self.stems()]


def _exact_corpus(seed: int, tiny: bool) -> Plan:
    ns, ds, copies = ((4, 5), (2, 3), 1) if tiny else ((6, 7, 8), (2, 3, 4), 2)
    instances = []
    for n in ns:
        for d in ds:
            for k in range(copies):
                instances.append(InstanceFile(f"r-n{n}-d{d}-{k}", "random", n, d,
                                              seed=seed * 1000 + len(instances)))
    return Plan(tuple(instances), EXACT_ALGOS, ("--method", "exact"), None)


def _oracle_large(seed: int, tiny: bool) -> Plan:
    sizes = ((7, 3), (8, 2)) if tiny else ((10, 3), (12, 2)) * 2
    instances = tuple(InstanceFile(f"r-n{n}-d{d}-{k}", "random", n, d, seed=seed * 1000 + k)
                      for k, (n, d) in enumerate(sizes))
    # naive_abs and naive_rel solve the two objectives, one oracle solve each.
    return Plan(instances, ("naive_abs", "naive_rel"),
                ("--method", "exact", "--max-states", "200000"), None, split_algos=True)


def _mc_large(seed: int, tiny: bool) -> Plan:
    adv_ns, (n, d), trials = (((15, 21), (20, 4), 50) if tiny
                              else ((33, 37, 41, 45), (30, 4), 2000))
    instances = tuple(InstanceFile(f"adversarial-n{adv_n}", "adversarial", adv_n, 2,
                                   epsilon=1e-3) for adv_n in adv_ns)
    instances += (InstanceFile(f"r-n{n}-d{d}", "random", n, d, seed=seed * 1000),)
    return Plan(instances, MC_ALGOS,
                ("--method", "mc", "--trials", str(trials), "--seed", str(seed),
                 "--max-states", str(PINNED_MAX_STATES)), trials, split_algos=True)


WORKLOADS = {
    "exact-corpus": _exact_corpus,
    "oracle-large": _oracle_large,
    "mc-large": _mc_large,
}


def plan(workload: str, seed: int, tiny: bool = False) -> Plan:
    """The plan of a workload for a benchmark seed; tiny shrinks it for self-tests."""
    return WORKLOADS[workload](seed, tiny)
