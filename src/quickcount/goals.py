"""Monotone submodular goal functions whose goal value encodes "we can stop".

A goal function g maps a partial value vector (entries are small ints or
None for "not yet revealed") to a non-negative integer, with g(all-None) = 0
and g(x) = Q on every full vector.  Reaching the goal value Q is equivalent
to a stopping condition: for the election constructions below, to the
presence of a winner certificate.

Values are Python ints throughout; the composed absolute-majority goal has
Q = (floor(n/2)+1)**d * d*ceil(n/2), which grows fast in d, so construction
is capped at d <= 16, n <= 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import (Instance, PartialAssignment, blocking_threshold,
                   majority_threshold)

PartialVector = Sequence[Optional[int]]

MAX_COMPOSED_D = 16
MAX_COMPOSED_N = 64


@dataclass(frozen=True)
class GoalFunction:
    """A utility with a goal value.  evaluate() is stateless.

    Symmetry contract: evaluate() reads a partial vector only through how
    many revealed entries hold each value, so permuting the entries never
    changes it, and None entries are ignored: b may be any vector of the
    revealed values, with or without None at the unrevealed positions.
    Every goal built in this module keeps the contract, and
    dualgreedy.adg_select relies on it to price each value once.
    """

    evaluate: Callable[[PartialVector], int]
    goal: int
    name: str = ""

    def reached(self, b: PartialVector) -> bool:
        return self.evaluate(b) >= self.goal


def marginal_gain(goal: GoalFunction, b: PartialVector, index: int, value: int) -> int:
    """Gain from revealing one entry; agrees with from-scratch evaluation."""
    if b[index] is not None:
        raise ValueError(f"entry {index} already revealed")
    base = goal.evaluate(b)
    probe = list(b)
    probe[index] = value
    return goal.evaluate(probe) - base


def g_for(j: int, n: int) -> GoalFunction:
    """Support for candidate j, capped at floor(n/2)+1.

    Hits its goal exactly when j is certified the absolute-majority winner.
    """
    cap = majority_threshold(n)

    def evaluate(b: PartialVector) -> int:
        seen = sum(1 for v in b if v == j)
        return cap if seen >= cap else seen

    return GoalFunction(evaluate, cap, name=f"for[{j}]")


def g_against(j: int, n: int) -> GoalFunction:
    """Revealed votes for candidates other than j, capped at ceil(n/2).

    Hits its goal exactly when j is certified *not* to win an absolute
    majority.
    """
    cap = blocking_threshold(n)

    def evaluate(b: PartialVector) -> int:
        seen = sum(1 for v in b if v is not None and v != j)
        return cap if seen >= cap else seen

    return GoalFunction(evaluate, cap, name=f"against[{j}]")


def or_combine(goals: Sequence[GoalFunction]) -> GoalFunction:
    """Goal reached as soon as any component reaches its own.

    Q = prod(Q_j) and g(b) = Q - prod(Q_j - g_j(b)); a single component at
    its goal zeroes the product.
    """
    goals = tuple(goals)
    if not goals:
        raise ValueError("or_combine requires at least one component")
    q = math.prod(g.goal for g in goals)

    def evaluate(b: PartialVector) -> int:
        slack = 1
        for g in goals:
            slack *= g.goal - g.evaluate(b)
            if slack == 0:
                return q
        return q - slack

    return GoalFunction(evaluate, q, name="or(" + ",".join(g.name for g in goals) + ")")


def and_combine(goals: Sequence[GoalFunction]) -> GoalFunction:
    """Goal reached once every component reaches its own: plain sums."""
    goals = tuple(goals)
    if not goals:
        raise ValueError("and_combine requires at least one component")
    q = sum(g.goal for g in goals)

    def evaluate(b: PartialVector) -> int:
        return sum(g.evaluate(b) for g in goals)

    return GoalFunction(evaluate, q, name="and(" + ",".join(g.name for g in goals) + ")")


def abs_majority_goal(instance: Instance) -> GoalFunction:
    """Composed goal reaching Q exactly when an absolute-majority certificate exists.

    OR over per-candidate support goals (someone verified the winner), OR'd
    with the AND of all per-candidate blocking goals (everyone ruled out).
    """
    n, d = instance.n, instance.d
    if d > MAX_COMPOSED_D or n > MAX_COMPOSED_N:
        raise ValueError(
            f"composed goal limited to d <= {MAX_COMPOSED_D}, n <= {MAX_COMPOSED_N}")
    some_winner = or_combine([g_for(j, n) for j in range(1, d + 1)])
    all_blocked = and_combine([g_against(j, n) for j in range(1, d + 1)])
    combined = or_combine([some_winner, all_blocked])
    return GoalFunction(combined.evaluate, combined.goal, name="abs_majority")


def g_pair(j: int, k: int, n: int) -> GoalFunction:
    """Progress toward "j is guaranteed strictly more votes than k".

    g(b) = min(N_j(b) + sum over l != k of N_l(b), n+1); a revealed vote
    contributes 2 (for j), 0 (for k) or 1 (anyone else) before capping, and
    the cap n+1 is reached exactly when j beats k in every completion.
    """
    if j == k:
        raise ValueError("g_pair requires two distinct candidates")
    cap = n + 1

    def evaluate(b: PartialVector) -> int:
        total = 0
        for v in b:
            if v is None or v == k:
                continue
            total += 2 if v == j else 1
        return cap if total >= cap else total

    return GoalFunction(evaluate, cap, name=f"pair[{j}>{k}]")


@dataclass(frozen=True)
class DistanceProfile:
    """Distances of the per-candidate goals from their goal values.

    Absolute objective: m[j-1] = ceil(n/2) minus the capped count of votes
    against j.  Relative objective: pairs[(j, k)] = n+1 - g_pair value and
    M[j-1] = max over k of pairs[(j, k)].
    """

    objective: str
    m: Optional[tuple[int, ...]] = None
    pairs: Optional[dict[tuple[int, int], int]] = None
    M: Optional[tuple[int, ...]] = None


def distances(b: PartialAssignment, objective: str) -> DistanceProfile:
    n, d = b.n, b.d
    if objective == "abs":
        block = blocking_threshold(n)
        tested = b.tested_count
        m = tuple(block - min(tested - b.tallies[j - 1], block)
                  for j in range(1, d + 1))
        return DistanceProfile("abs", m=m)
    if objective == "rel":
        cap = n + 1
        tested = b.tested_count
        pairs = {}
        for j in range(1, d + 1):
            for k in range(1, d + 1):
                if j == k:
                    continue
                raw = b.tallies[j - 1] + tested - b.tallies[k - 1]
                pairs[(j, k)] = cap - min(raw, cap)
        big = tuple(max(pairs[(j, k)] for k in range(1, d + 1) if k != j)
                    for j in range(1, d + 1))
        return DistanceProfile("rel", pairs=pairs, M=big)
    raise ValueError(f"objective must be 'abs' or 'rel', got {objective!r}")


def ternary_threshold_goal(theta: int, m: int) -> GoalFunction:
    """Goal deciding whether the sum of m variables in {0,1,2} reaches theta.

    The OR (as or_combine builds it) of a "sum already there" counter
    capped at theta and a "sum can no longer get there" counter of
    2 - value, capped at 2m - theta + 1.  Q is reached exactly when the
    threshold question is settled either way.  Both counters come from one
    scan: with c revealed entries summing to s, the second counter's sum is
    2c - s.
    """
    if not 1 <= theta <= 2 * m:
        raise ValueError(f"theta must lie in 1..{2 * m}, got {theta}")
    q1 = theta
    q0 = 2 * m - theta + 1
    q = q1 * q0

    def evaluate(b: PartialVector) -> int:
        c = s = 0
        for v in b:
            if v is not None:
                c += 1
                s += v
        return q - (q1 - min(s, q1)) * (q0 - min(2 * c - s, q0))

    return GoalFunction(evaluate, q, name=f"threshold[{theta}/{m}]")
