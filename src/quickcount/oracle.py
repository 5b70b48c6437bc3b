"""Ground truth and measurement.

optimal_expected_cost() computes the exact optimum of the vote-inspection
problem by dynamic programming over belief states.  Because every
certificate and all future dynamics depend only on the per-candidate
tallies and the set of untested voters, (untested set, tallies) is a
sufficient state, which keeps the DP at desk scale rather than d^n.  The
DP runs bottom-up, one layer per tested count: the certificates read only
the tallies and the untested count, so each tallies vector is checked once
and all of its untested sets are solved together as numpy arrays, which
hold exactly estimate_belief_states(n, d) values.

exact_strategy_cost() evaluates any deterministic strategy exactly by
branching over the d outcomes of every test it makes; monte_carlo_cost()
estimates the same quantity by seeded sampling.

The evaluator memoizes on the strategy's whole state tuple, for the length
of one call, so it walks a DAG of distinct states rather than the decision
tree.  Decided states are memoized too (at 0.0), so a state is expanded and
checked once however many paths reach it.  monte_carlo_cost caches on the
strategy's state tuple as well, holding at most trials + 1 states (and no
more than max_cached_nodes), so trials that meet in a state share its next
test and its transitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import (Instance, abs_certificate_from_tallies,
                   rel_certificate_from_tallies)
from .strategies import DONE, NaiveCheapest, Strategy

DEFAULT_MAX_STATES = 30_000

_CERTS = {"abs": abs_certificate_from_tallies, "rel": rel_certificate_from_tallies}


class BudgetExceededError(RuntimeError):
    """The belief-state space is too large for the exact oracle."""

    def __init__(self, estimate: int, budget: int) -> None:
        super().__init__(f"about {estimate} belief states exceed the budget of {budget}")
        self.estimate = estimate
        self.budget = budget


class StrategyError(RuntimeError):
    """A strategy violated its protocol (retest, or stop without certificate)."""


def estimate_belief_states(n: int, d: int) -> int:
    """Number of (untested set, tallies) pairs with consistent counts: the
    values the oracle stores, and an upper bound on the reachable states."""
    return sum(math.comb(n, t) * math.comb(t + d - 1, d - 1) for t in range(n + 1))


def _compositions(total: int, parts: int):
    """Every tuple of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


class _Oracle:
    """The optimal value V(untested mask, tallies) and its argmin, solved
    bottom-up in one layered sweep at construction.

    Layer t holds the states with t tested voters, that is the masks with
    n - t untested bits against the tallies vectors T summing to t; it is
    solved from its children in layer t + 1, starting at t = n.  Both
    certificates read only T and the untested count, so each T is checked
    once and decides all of its masks together: a decided T stores zeros,
    an undecided T the minimum over voters v, in ascending order, of
    costs[v] + probs[v][0]*V(child, T+e_1) + probs[v][1]*V(child, T+e_2)
    + ..., summed in that order for every mask with bit v set at once.  A
    strict < keeps the lowest voter on ties.  The stored values number
    estimate_belief_states(n, d) exactly, indexed per T by the mask's rank
    among the masks of its popcount; value and best_test are lookups.
    """

    def __init__(self, instance: Instance, objective: str,
                 max_states: int = DEFAULT_MAX_STATES) -> None:
        if objective not in _CERTS:
            raise ValueError(f"objective must be 'abs' or 'rel', got {objective!r}")
        estimate = estimate_belief_states(instance.n, instance.d)
        if estimate > max_states:
            raise BudgetExceededError(estimate, max_states)
        self.instance = instance
        self.objective = objective
        self._solve(_CERTS[objective])

    def _solve(self, cert) -> None:
        inst = self.instance
        n, d = inst.n, inst.d
        masks = np.arange(1 << n)
        popcount = np.zeros(1 << n, dtype=np.intp)
        for v in range(n):
            popcount += masks >> v & 1
        by_popcount = np.argsort(popcount, kind="stable")
        starts = np.cumsum([0] + [math.comb(n, u) for u in range(n)])
        rank = np.empty(1 << n, dtype=np.intp)
        rank[by_popcount] = masks
        rank -= starts[popcount]
        self._rank = rank
        values: dict = {}
        moves: dict = {}
        for t in range(n, -1, -1):
            untested = n - t
            layer = by_popcount[starts[untested]:starts[untested] + math.comb(n, t)]
            steps = None
            for tallies in _compositions(t, d):
                if cert(tallies, untested, n) is not None:
                    values[tallies] = np.zeros(len(layer))
                    continue
                if steps is None:
                    # For each voter: the masks of this layer that have it
                    # untested, and the ranks of those masks without it.
                    steps = []
                    for v in range(n):
                        sel = np.flatnonzero(layer >> v & 1)
                        steps.append((sel, rank[layer[sel] ^ (1 << v)]))
                kids = [values[tallies[:j] + (tallies[j] + 1,) + tallies[j + 1:]]
                        for j in range(d)]
                best = np.full(len(layer), math.inf)
                move = np.full(len(layer), -1, dtype=np.intp)
                for v, (sel, child) in enumerate(steps):
                    row = inst.probs[v]
                    total = inst.costs[v] + row[0] * kids[0][child]
                    for j in range(1, d):
                        total += row[j] * kids[j][child]
                    better = total < best[sel]
                    won = sel[better]
                    best[won] = total[better]
                    move[won] = v
                values[tallies] = best
                moves[tallies] = move
        self._values = values
        self._moves = moves

    def value(self, mask: int, tallies: tuple[int, ...]) -> float:
        """Optimal expected cost to finish from the given belief state."""
        return float(self._values[tallies][self._rank[mask]])

    def best_test(self, mask: int, tallies: tuple[int, ...]) -> tuple[float, int]:
        """(expected cost, voter) of the best first test from an undecided
        state; ties break toward the lowest voter index."""
        moves = self._moves.get(tallies)
        if moves is None:
            raise ValueError(f"tallies {tallies} already decide the election")
        r = self._rank[mask]
        return float(self._values[tallies][r]), int(moves[r])

    def initial_value(self) -> float:
        return self.value((1 << self.instance.n) - 1, (0,) * self.instance.d)


def optimal_expected_cost(instance: Instance, objective: str,
                          max_states: int = DEFAULT_MAX_STATES) -> float:
    """Exact optimal adaptive expected cost of deciding the election."""
    return _Oracle(instance, objective, max_states).initial_value()


class OptimalStrategy(NaiveCheapest):
    """The DP-optimal strategy, exposed through the common state protocol.

    Its states are the naive strategy's (tag, mask, tallies, unknown),
    which are the oracle's own (mask, tallies); next_test() greedily follows
    the value function, ties breaking toward the lowest voter index.
    """

    def __init__(self, instance: Instance, objective: str = "abs",
                 max_states: int = DEFAULT_MAX_STATES) -> None:
        super().__init__(instance, objective)
        self.name = f"optimal_{objective}"
        self._oracle = _Oracle(instance, objective, max_states)

    def next_test(self, state) -> Optional[int]:
        if state[0] == DONE:
            return None
        return self._oracle.best_test(state[1], state[2])[1]


def exact_strategy_cost(strategy: Strategy) -> float:
    """Exact expected cost of a deterministic strategy.

    Follows the strategy recursively, branching over the d outcomes of each
    test weighted by their probabilities.  A state determines everything
    that follows it, so the decision tree is evaluated as a DAG of distinct
    states: each state's cost, decided states' 0.0 included, is memoized for
    the length of this call, and next_test runs once per distinct state.
    Raises StrategyError if the strategy retests a voter or stops while the
    outcome is still uncertain.
    """
    inst = strategy.instance
    cert_fn = _CERTS[strategy.objective]
    probs = inst.probs
    costs = inst.costs
    d = inst.d
    memo: dict = {}

    def rec(state) -> float:
        hit = memo.get(state)
        if hit is not None:
            return hit
        voter = strategy.next_test(state)
        if voter is None:
            cert = cert_fn(state[2], state[3], inst.n)
            if cert is None:
                raise StrategyError("strategy stopped without a certificate")
            if cert != strategy.result(state):
                raise StrategyError(
                    f"strategy reported {strategy.result(state)} but the "
                    f"certificate says {cert}")
            memo[state] = 0.0
            return 0.0
        if not state[1] >> voter & 1:
            raise StrategyError(f"strategy retested voter {voter}")
        row = probs[voter]
        total = costs[voter]
        for j in range(1, d + 1):
            total += row[j - 1] * rec(strategy.advance(state, voter, j))
        memo[state] = total
        return total

    return rec(strategy.initial_state())


def sample_realizations(instance: Instance, trials: int, seed: int,
                        chunk: int = 1 << 14):
    """Yield realization batches as (batch, n) integer arrays in 1..d.

    Trial t always consumes uniforms [t*n, (t+1)*n) of the Philox stream
    keyed by the seed, so trials are independent of batching, order
    independent, and reproducible.  Each vote is drawn by inverse transform
    over the cumulative probability row of its voter.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    cums = np.cumsum(np.asarray(instance.probs, dtype=float), axis=1)
    n, d = instance.n, instance.d
    remaining = trials
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        u = gen.random((m, n))
        values = np.empty((m, n), dtype=np.int64)
        for v in range(n):
            values[:, v] = np.searchsorted(cums[v], u[:, v], side="right")
        np.minimum(values, d - 1, out=values)
        values += 1
        yield values


class MonteCarloResult(NamedTuple):
    mean: float
    stderr: float


class _Node:
    """A cached strategy state: its next test and its children by value."""

    __slots__ = ("voter", "state", "children")

    def __init__(self, voter, state):
        self.voter = voter
        self.state = state
        self.children: dict = {}


def monte_carlo_cost(strategy: Strategy, trials: int, seed: int,
                     max_cached_nodes: int = 200_000) -> MonteCarloResult:
    """Estimate a strategy's expected cost from seeded random realizations.

    Returns the sample mean and its standard error.  Trials share work
    through a cache of strategy states: equal states have equal futures, so
    each cached state asks next_test once and each (state, value) edge
    between cached states calls advance once.  An edge to a state already
    cached is always linked; a new state is cached while the cache holds
    fewer than min(trials + 1, max_cached_nodes) states (the initial state
    included), which bounds it by what a trie with one node per trial would
    hold.  Past that bound a trial runs uncached until it reaches a cached
    state again.  Each trial sums its test costs in path order from 0.0,
    so the per-trial costs, and hence the estimate, are exactly what
    independent simulation would produce.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    inst = strategy.instance
    costs = inst.costs
    init = strategy.initial_state()
    root = _Node(strategy.next_test(init), init)
    cache = {init: root}
    room = min(trials + 1, max_cached_nodes)
    out = np.empty(trials, dtype=float)
    t = 0
    for batch in sample_realizations(inst, trials, seed):
        for row_arr in batch:
            row = row_arr.tolist()
            node = root
            cum = 0.0
            while node is not None and node.voter is not None:
                voter = node.voter
                value = row[voter]
                cum += costs[voter]
                child = node.children.get(value)
                if child is None:
                    state = strategy.advance(node.state, voter, value)
                    child = cache.get(state)
                    if child is None and len(cache) < room:
                        child = cache[state] = _Node(strategy.next_test(state),
                                                     state)
                    if child is not None:
                        node.children[value] = child
                    else:
                        # Uncached until the walk meets a cached state.
                        voter = strategy.next_test(state)
                        while voter is not None:
                            cum += costs[voter]
                            state = strategy.advance(state, voter, row[voter])
                            child = cache.get(state)
                            if child is not None:
                                break
                            voter = strategy.next_test(state)
                node = child
            out[t] = cum
            t += 1
    mean = float(out.mean())
    stderr = float(out.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloResult(mean, stderr)


@dataclass(frozen=True)
class EvaluationReport:
    """A strategy's measured cost next to the oracle optimum."""

    algo: str
    expected_cost: float
    opt_cost: Optional[float]
    ratio: Optional[float]
    method: str
    trials: Optional[int] = None
    stderr: Optional[float] = None


def _ratio(expected: float, opt: Optional[float]) -> Optional[float]:
    if opt is None:
        return None
    if opt > 0.0:
        return expected / opt
    return 1.0 if expected == 0.0 else math.inf


def evaluate_strategy(strategy: Strategy, method: str = "exact",
                      trials: int = 10_000, seed: int = 0,
                      opt_cost: Optional[float] = None) -> EvaluationReport:
    """Measure a strategy and report it against the given optimum.

    With method="exact" the expected cost is computed exactly; with
    method="mc" it is estimated by monte_carlo_cost.  opt_cost is the
    optimum from optimal_expected_cost, solved once by the caller for all
    strategies of one objective; None means no optimum is known, and the
    report then has no ratio.
    """
    if method not in ("exact", "mc"):
        raise ValueError(f"method must be 'exact' or 'mc', got {method!r}")
    if method == "exact":
        expected = exact_strategy_cost(strategy)
        return EvaluationReport(strategy.name, expected, opt_cost,
                                _ratio(expected, opt_cost), "exact")
    mc = monte_carlo_cost(strategy, trials, seed)
    return EvaluationReport(strategy.name, mc.mean, opt_cost,
                            _ratio(mc.mean, opt_cost), "monte-carlo",
                            trials=trials, stderr=mc.stderr)
