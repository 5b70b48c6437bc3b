"""Shared helpers: small-instance builders, independent brute-force oracles,
and the referee definitions of contention, goal distances and Phase 1.

The oracles here deliberately avoid the library's shortcuts (tally
collapsing, certificates, memoization) so they can vouch for them.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import pytest

from quickcount.bench import GeneratorSpec, generate
from quickcount.core import (CERTIFICATES, Instance, _check_objective, _top_two,
                             abs_majority, blocking_threshold, majority_threshold,
                             rel_majority)
from quickcount.goals import GoalFunction, PartialVector
from quickcount.kernels import (kofn_permutation_for, refutation_order,
                                support_order)
from quickcount.oracle import OptimalStrategy
from quickcount.strategies import (DONE, P1, STRATEGIES, Abs4, Rel8,
                                   _check_realization, make_strategy, walks_of)


def make_instance(costs, probs):
    return Instance(n=len(costs), d=len(probs[0]), costs=tuple(costs),
                    probs=tuple(tuple(row) for row in probs))


def uniform_instance(n, d, costs=None):
    row = tuple(1.0 / d for _ in range(d))
    if costs is None:
        costs = tuple(1.0 for _ in range(n))
    return make_instance(costs, [row] * n)


def random_instance(n, d, seed):
    return generate(GeneratorSpec(kind="random", n=n, d=d, seed=seed))


def all_realizations(n, d):
    return itertools.product(range(1, d + 1), repeat=n)


def all_partials(n, d):
    return itertools.product((None, *range(1, d + 1)), repeat=n)


def realization_prob(instance, x):
    p = 1.0
    for i, v in enumerate(x):
        p *= instance.probs[i][v - 1]
    return p


def extensions(entries, d):
    """All full assignments extending a partial entries tuple."""
    holes = [i for i, v in enumerate(entries) if v is None]
    base = list(entries)
    for fill in itertools.product(range(1, d + 1), repeat=len(holes)):
        for i, v in zip(holes, fill):
            base[i] = v
        yield tuple(base)


def brute_certificate(entries, d, objective):
    """Certificate by checking every extension: the defining property."""
    fn = abs_majority if objective == "abs" else rel_majority
    outcomes = {fn(x, d) for x in extensions(entries, d)}
    return outcomes.pop() if len(outcomes) == 1 else None


def brute_winnable(entries, d, objective):
    """Candidates winning in at least one extension."""
    fn = abs_majority if objective == "abs" else rel_majority
    return {fn(x, d) for x in extensions(entries, d)} - {0}


def brute_optimal(instance, objective, entries=None):
    """Optimal expected cost by unmemoized recursion over raw partial
    assignments; independent of the belief-state DP."""
    d = instance.d
    if entries is None:
        entries = (None,) * instance.n

    def rec(b):
        if brute_certificate(b, d, objective) is not None:
            return 0.0
        best = math.inf
        for i, v in enumerate(b):
            if v is not None:
                continue
            total = instance.costs[i]
            for j in range(1, d + 1):
                child = b[:i] + (j,) + b[i + 1:]
                total += instance.probs[i][j - 1] * rec(child)
            best = min(best, total)
        return best

    return rec(tuple(entries))


def kofn_optimal(costs, ps, k):
    """Exact optimal expected cost of deciding a k-of-n question.

    Decide whether at least k of the variables are 1, where P[var i = 1]
    = ps[i]; stop once k ones or (n - k + 1) zeros are seen.

    Variables with the same (cost, p) are interchangeable, so they are
    merged into classes and the state is (untested count per class, ones
    seen).  With all-distinct variables this is the plain subset DP.
    """
    classes = {}
    for c, p in zip(costs, ps):
        classes[(c, p)] = classes.get((c, p), 0) + 1
    kinds = list(classes)
    n = len(costs)
    z = n - k + 1
    memo = {}

    def rec(counts, ones):
        zeros = n - sum(counts) - ones
        if ones >= k or zeros >= z:
            return 0.0
        key = (counts, ones)
        if key in memo:
            return memo[key]
        best = math.inf
        for j, (c, p) in enumerate(kinds):
            if not counts[j]:
                continue
            child = counts[:j] + (counts[j] - 1,) + counts[j + 1:]
            val = c + p * rec(child, ones + 1) + (1 - p) * rec(child, ones)
            best = min(best, val)
        memo[key] = best
        return best

    return rec(tuple(classes.values()), 0)


def every_strategy(instance):
    """Every registered strategy, then OptimalStrategy for abs and for rel."""
    for name in STRATEGIES:
        yield make_strategy(name, instance)
    for objective in ("abs", "rel"):
        yield OptimalStrategy(instance, objective)


def kofn_permutation(instance, untested, target):
    """kofn_permutation_for over the given untested voters, from the
    target's freshly sorted support and refutation orders."""
    return kofn_permutation_for(instance.costs, sum(1 << v for v in untested),
                                (support_order(instance, target),
                                 refutation_order(instance, target)))


def reachable_states(strategy, skip=None):
    """Distinct states reachable from initial_state over next_test/advance,
    leaving out each child that skip(state, child), if given, holds for."""
    d = strategy.instance.d
    init = strategy.initial_state()
    seen = {init}
    stack = [init]
    while stack:
        state = stack.pop()
        voter = strategy.next_test(state)
        if voter is None:
            continue
        for j in range(1, d + 1):
            child = strategy.advance(state, voter, j)
            if child not in seen and not (skip and skip(state, child)):
                seen.add(child)
                stack.append(child)
    return seen


def walked(strategy, state):
    """Whether exact evaluation expands state itself, with no next_test:
    a state of a tag the strategy's class declares walked."""
    return state[0] in walks_of(strategy)


def evaluated_states(strategy):
    """(held, stepped): the distinct states exact evaluation holds in its
    frontiers, and those of them it asks next_test.  No stopping state is
    held: exact evaluation settles every child itself and counts a
    stopping one as decided."""
    held = reachable_states(strategy, lambda state, child: child[0] == DONE)
    return held, {state for state in held if not walked(strategy, state)}


def stepped_cost(strategy):
    """Exact expected cost by memoized recursion over next_test and
    advance, the reference for exact_strategy_cost to the bit.  A state
    that tests voter v is worth costs[v], then + probs[v][j-1] * V(child_j)
    for j = 1..d in order; a stopping state is worth 0.0, once its result
    is checked to be the certificate's."""
    inst = strategy.instance
    cert = CERTIFICATES[strategy.objective]
    memo = {}

    def value(state):
        total = memo.get(state)
        if total is not None:
            return total
        voter = strategy.next_test(state)
        if voter is None:
            assert strategy.result(state) == cert(state[2], state[3], inst.n)
            total = 0.0
        else:
            total = inst.costs[voter]
            for j, p in enumerate(inst.probs[voter], 1):
                total += p * value(strategy.advance(state, voter, j))
        memo[state] = total
        return total

    return value(strategy.initial_state())


def sweep_cost(run, instance):
    """Expected cost as an explicit sum over all d^n realizations.

    run(x) must return an object with a .cost attribute (a Transcript).
    """
    total = 0.0
    for x in all_realizations(instance.n, instance.d):
        total += realization_prob(instance, x) * run(x).cost
    return total


def state_of(entries, d):
    """(tallies, unknown, n) of a partial entries tuple, None for a vote
    not yet revealed: the slots of a state that the tallies rules read."""
    tallies = [0] * d
    for v in entries:
        if v is not None:
            tallies[v - 1] += 1
    return tuple(tallies), entries.count(None), len(entries)


# Referees that spell out definitions the library only applies: the
# contention sets (the library reads contention through
# phase1_stop_from_tallies and the kernels' own thresholds), the pair goal
# and a goal's marginal gain, the goal distances, and the Phase 1 states
# of abs4 and rel8.

def viable_candidates(tallies: Sequence[int], unknown: int, n: int,
                      objective: str) -> set[int]:
    """Candidates that win in at least one completion of the tallies with
    unknown votes still untested.

    abs: j with N_j + N_* >= floor(n/2)+1.  rel: j with N_j + N_* > N_k for
    all k != j (strictly; ties at the top do not count as winning).
    """
    _check_objective(objective)
    if objective == "abs":
        need = majority_threshold(n)
        return {j for j, t in enumerate(tallies, start=1) if t + unknown >= need}
    first, second = _top_two(tallies)
    viable = set()
    for j, t in enumerate(tallies, start=1):
        rival = second if t == first else first
        if t + unknown > rival:
            viable.add(j)
    return viable


def possible_toppers(tallies: Sequence[int], unknown: int) -> set[int]:
    """Candidates that can still reach the top of the relative-majority
    count from the tallies with unknown votes still untested.

    Unlike viable_candidates(..., "rel") this includes candidates that can
    at best tie for the lead.  A candidate outside this set finishes
    strictly below the winner's tally in every completion, so once at most
    two toppers remain the election outcome is a function of those two
    alone.
    """
    first, second = _top_two(tallies)
    out = set()
    for j, t in enumerate(tallies, start=1):
        rival = second if t == first else first
        if t + unknown >= rival:
            out.add(j)
    return out


def marginal_gain(goal: GoalFunction, b: PartialVector, index: int, value: int) -> int:
    """Gain from revealing one entry; agrees with from-scratch evaluation."""
    if b[index] is not None:
        raise ValueError(f"entry {index} already revealed")
    base = goal.evaluate(b)
    probe = list(b)
    probe[index] = value
    return goal.evaluate(probe) - base


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


def distances(tallies: Sequence[int], unknown: int, n: int,
              objective: str) -> DistanceProfile:
    """The DistanceProfile of the tallies with unknown votes still untested."""
    _check_objective(objective)
    d, tested = len(tallies), n - unknown
    if objective == "abs":
        block = blocking_threshold(n)
        m = tuple(block - min(tested - t, block) for t in tallies)
        return DistanceProfile("abs", m=m)
    cap = n + 1
    pairs = {}
    for j in range(1, d + 1):
        for k in range(1, d + 1):
            if j == k:
                continue
            raw = tallies[j - 1] + tested - tallies[k - 1]
            pairs[(j, k)] = cap - min(raw, cap)
    big = tuple(max(pairs[(j, k)] for k in range(1, d + 1) if k != j)
                for j in range(1, d + 1))
    return DistanceProfile("rel", pairs=pairs, M=big)


def phase1_trace(instance: Instance, realization: Sequence[int], objective: str,
                 ) -> list[tuple]:
    """The Phase 1 states of abs4 (objective "abs") or rel8 ("rel") on the
    realization: the strategy's own states, from initial_state() up to and
    including the first state that is not a P1 state, which ends Phase 1
    on a certificate or a hand-over to the kernel.  Each state is the one
    TwoPhaseStrategy.advance reaches from the one before, revealing its
    cheapest untested vote.
    """
    _check_objective(objective)
    _check_realization(instance, realization)
    strategy = Abs4(instance) if objective == "abs" else Rel8(instance)
    states = [strategy.initial_state()]
    while states[-1][0] == P1:
        voter = strategy.next_test(states[-1])
        states.append(strategy.advance(states[-1], voter, realization[voter]))
    return states


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)
