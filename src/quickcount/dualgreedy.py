"""Adaptive Dual Greedy for stochastic submodular cover, plus its ratio diagnostic.

The engine drives any GoalFunction to its goal value at small expected cost.
It maintains a charge a_i per untested item, raised uniformly at the rate of
the item's expected marginal utility

    w_i(b) = sum over values v of P[item i = v] * (g(b with i <- v) - g(b)),

until some item's charge budget c_i is exhausted; that item is tested next.
These charges realize the dual variables of the covering LP, and the
resulting strategy is within the prefix-ratio factor computed by
adg_ratio_samples() of the optimal adaptive strategy.

Goals are symmetric (see GoalFunction), so the gain g(b with i <- v) - g(b)
is the same at every untested item i: it is g(b plus one entry v) - g(b).
adg_select therefore prices each value v once, on the vector b with v
appended, and weights those gains per item: a selection makes at most
1 + (distinct values) goal evaluations rather than 1 + (values per item) *
(untested items).  The charge raise that follows a selection is written
once, in adg_raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .goals import GoalFunction, PartialVector


class MalformedGoalError(RuntimeError):
    """Goal below its goal value yet no test has positive expected gain."""


@dataclass(frozen=True)
class RatioSample:
    """One prefix of a cover run, scored by the dual-greedy ratio bound.

    numerator sums the stand-alone gains of the items tested after the
    prefix; denominator is the utility still missing at the prefix.  The
    ratio is at least 1 by submodularity, and its maximum over runs bounds
    the engine's approximation factor.
    """

    realization: tuple[int, ...]
    prefix: tuple[int, ...]
    numerator: int
    denominator: int

    @property
    def ratio(self) -> float:
        return self.numerator / self.denominator


@dataclass(frozen=True)
class AdgRun:
    b: tuple[Optional[int], ...]
    cost: float
    tested: tuple[int, ...]


def adg_select(goal: GoalFunction, costs: Sequence[float],
               value_probs: Sequence[Mapping[int, float]], b: Sequence[Optional[int]],
               charges: Mapping[int, float], untested: Sequence[int],
               ) -> tuple[int, float, dict[int, float]]:
    """One selection step: returns (item to test, charge rate, marginals).

    Deterministic: the minimizing item with the lowest index is chosen, and
    zero-cost items with positive marginal gain are picked immediately.
    b may be any vector of the revealed values: the goal's symmetry lets it
    be the full partial vector, whose None entries are ignored, or just the
    revealed values in any order.  Each value's gain is priced once, as
    goal.evaluate([*b, value]) - base; items weight the gains in their own
    value_probs order, so the sums are those of probing every item.
    """
    base = goal.evaluate(b)
    if base >= goal.goal:
        raise ValueError("goal already reached")
    weights: dict[int, float] = {}
    gains: dict[int, int] = {}
    best = -1
    theta = None
    for i in untested:
        w = 0.0
        for value, p in value_probs[i].items():
            if p <= 0.0:
                continue
            gain = gains.get(value)
            if gain is None:
                gain = gains[value] = goal.evaluate([*b, value]) - base
            w += p * gain
        if w > 0.0:
            weights[i] = w
            # untested is in ascending item order, so keeping the first
            # strict minimum breaks ties toward the lowest index.
            need = max(costs[i] - charges.get(i, 0.0), 0.0) / w
            if theta is None or need < theta:
                theta, best = need, i
    if not weights:
        raise MalformedGoalError(
            "no test has positive expected gain although the goal is unmet")
    return best, theta, weights


def adg_raise(charges: Mapping[int, float], rate: float,
              weights: Mapping[int, float]) -> dict[int, float]:
    """The charges after a selection: each item's raised by rate times its
    marginal, new items starting from 0.0 in weights order."""
    raised = dict(charges)
    for i, w in weights.items():
        raised[i] = raised.get(i, 0.0) + rate * w
    return raised


def adg_run(goal: GoalFunction, costs: Sequence[float],
            value_probs: Sequence[Mapping[int, float]], b0: PartialVector,
            realization: Sequence[int]) -> AdgRun:
    """Run the dual-greedy cover strategy on one realization.

    b0 marks already-revealed entries; the remaining entries are read from
    the realization as they are tested.  Returns the final assignment, the
    cost spent, and the tested sequence in order.
    """
    b = list(b0)
    charged: dict[int, float] = {}
    spent = 0.0
    untested = [i for i, v in enumerate(b) if v is None]
    tested: list[int] = []
    while goal.evaluate(b) < goal.goal:
        if not untested:
            raise MalformedGoalError("goal unmet on a full assignment")
        star, theta, weights = adg_select(goal, costs, value_probs, b,
                                          charged, untested)
        charged = adg_raise(charged, theta, weights)
        b[star] = realization[star]
        spent += costs[star]
        untested.remove(star)
        tested.append(star)
        charged.pop(star, None)
    return AdgRun(b=tuple(b), cost=spent, tested=tuple(tested))


def adg_ratio_samples(goal: GoalFunction, costs: Sequence[float],
                      value_probs: Sequence[Mapping[int, float]],
                      realization: Sequence[int]) -> list[RatioSample]:
    """Score every proper prefix of a cover run, started with every entry
    untested, with the ratio bound."""
    run = adg_run(goal, costs, value_probs, [None] * len(realization),
                  realization)
    x = tuple(realization)
    samples = []
    for t in range(len(run.tested)):
        prefix = run.tested[:t]
        b = [None] * len(x)
        for i in prefix:
            b[i] = x[i]
        base = goal.evaluate(b)
        denominator = goal.goal - base
        numerator = 0
        for i in run.tested[t:]:
            b[i] = x[i]
            numerator += goal.evaluate(b) - base
            b[i] = None
        samples.append(RatioSample(realization=x, prefix=prefix,
                                   numerator=numerator, denominator=denominator))
    return samples
