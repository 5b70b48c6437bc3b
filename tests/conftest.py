"""Shared helpers: small-instance builders and independent brute-force oracles.

The oracles here deliberately avoid the library's shortcuts (tally
collapsing, certificates, memoization) so they can vouch for them.
"""

import itertools
import math

import numpy as np
import pytest

from quickcount.bench import GeneratorSpec, generate
from quickcount.core import Instance, abs_majority, rel_majority
from quickcount.kernels import (kofn_permutation_for, refutation_order,
                                support_order)
from quickcount.oracle import OptimalStrategy
from quickcount.strategies import DONE, STRATEGIES, make_strategy, walks_of


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
    frontiers, and those of them it asks next_test.  A class that declares
    walks never has a stopping state held: exact evaluation settles its
    children itself and counts a stopping one as decided."""
    declared = bool(walks_of(strategy))
    held = reachable_states(strategy, lambda state, child: (
        declared and child[0] == DONE))
    return held, {state for state in held if not walked(strategy, state)}


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


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)
