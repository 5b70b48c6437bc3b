"""Ground truth and measurement.

optimal_expected_cost() computes the exact optimum of the vote-inspection
problem by dynamic programming over belief states.  Because every
certificate and all future dynamics depend only on the per-candidate
tallies and the set of untested voters, (untested set, tallies) is a
sufficient state, which keeps the DP at desk scale rather than d^n.  The
DP runs bottom-up, one layer per tested count, and each layer is one numpy
array with a row per tallies vector and a column per untested set.  The
certificates read only the tallies and the untested count, so each tallies
vector is checked once; the undecided rows are then solved over each
set's untested voters only, in blocks of sets, with one gather of the
layer below per candidate value per block and each state's minimum over
its voters taken as elementwise minima across a middle voter axis, so the
numpy calls grow with the blocks, not with the voters or the tallies
vectors.  The layers hold exactly estimate_belief_states(n, d) values and
no moves: the best test of a state is recomputed from the layer below
when asked for, with the solve's own sums, so it reproduces the stored
value to the bit.

exact_strategy_cost() evaluates any deterministic strategy exactly by
branching over the d outcomes of every test it makes; monte_carlo_cost()
estimates the same quantity by seeded sampling.

The exact evaluator walks the strategy's distinct states forward one depth
at a time, as a DAG rather than the decision tree, then sums their costs
in one backward sweep from the deepest depth, with no recursion.  It
expands states in one of two ways.  For a class that declares walks
(strategies.walks_of), it settles every child itself and never calls
advance: a state of a walked tag tests the next voter of its fixed order,
the cheapest untested voter for P1 and the next of its permutation for a
round, with no next_test, and a state of any other tag asks next_test
once.  Each distinct child tallies vector of a depth is checked against
the certificate once, among P1 states' children and among the others'
apart.  A decided child is worth 0.0 at once instead of taking a frontier
slot, and an undecided one is settled by the hook advance itself calls
after the certificate: _settle_p1 for a P1 state (once per tallies vector
of the depth), _kernel_advance for any other.  For any other class, every
state, stopping states included, is checked and asked for its test once
however many paths reach it, and each of its d edges advances once.  The
evaluator counts a state when it enters a frontier, so for a declared
class only undecided states count, and gives up on the
(EXACT_MAX_STATES + 1)-th, before asking that state anything.

monte_carlo_cost walks all the trials of a realization batch together.
The states a class declares walked (strategies.walks_of) test voters
along an order fixed in advance until a rule holds: the plain
cheapest-first Phase 1, and the rounds of abs10_tworound and
abs6_threeround, each a fixed permutation walked until the certificate or,
for abs6_threeround, the round's target is refuted.  The trials walk them
as arrays, in one walker (_walk_declared, over _walk_orders): running
counts of their votes along the order, and the array forms of the
certificate and of the rule (core), give each trial's exit depth and
tallies for a whole block of depths in a few numpy calls, with no
strategy step.  Each distinct exit, into the kernel or from one round to
the next, is settled once through the strategy's own code.  Other states
go one depth at a time: trials that are in equal states share that
state's next test, and trials that reveal the same value there share its
transition.

Both depth walks rest on one fact: every state holds its untested set, so
states at different depths differ and each depth's frontier is merged on
its own, with no cache carried between depths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import (CERTIFIED_ARRAYS, CERTIFICATES, Instance, _check_objective,
                   phase1_stop_array, refuted_array)
from .kernels import prefix_masks
from .strategies import (DONE, P1, PHASE1_STOP, TARGET_REFUTED, NaiveCheapest,
                         Strategy, walks_of)

DEFAULT_MAX_STATES = 30_000

# Sums, one per (undecided tallies vector, mask, untested voter), per block
# of a layer's masks in the oracle's solve: a block holds at most this
# many, unless one mask alone needs more.
_ORACLE_CELLS = 1 << 14

# Distinct strategy states exact_strategy_cost holds in its frontiers before
# it gives up.  It admits every evaluation the tests and the benchmark's
# workloads make (at most 17,070 states: rel8 on adversarial n=101, whose
# states at d = 2 are all stepped kernel states), and stops strategies whose
# states never merge, such as adg_abs's, whose states carry its charges.
EXACT_MAX_STATES = 100_000


def _about(count: int) -> str:
    """count exactly below 10**6, else rounded half up to three significant
    digits as mantissa and exponent, e.g. 1.07e+302.  The rounding works on
    the integer itself: such counts can exceed the largest float."""
    if count < 10 ** 6:
        return str(count)
    exponent = len(str(count)) - 1
    head = (count + 5 * 10 ** (exponent - 3)) // 10 ** (exponent - 2)
    if head == 1000:
        head, exponent = 100, exponent + 1
    return f"{head // 100}.{head % 100:02d}e+{exponent}"


class BudgetExceededError(RuntimeError):
    """The belief-state space is too large for the exact oracle.

    estimate holds the exact count; the message rounds it when large."""

    def __init__(self, estimate: int, budget: int) -> None:
        super().__init__(f"about {_about(estimate)} belief states exceed the "
                         f"budget of {budget}")
        self.estimate = estimate
        self.budget = budget


class StrategyError(RuntimeError):
    """A strategy violated its protocol (retest, or stop without certificate)."""


class EvaluationBudgetError(RuntimeError):
    """The strategy reaches more distinct states than exact evaluation admits."""

    def __init__(self, budget: int) -> None:
        super().__init__(f"more than {budget} distinct strategy states")
        self.budget = budget


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
    """The optimal value V(untested mask, tallies), solved bottom-up in one
    layered sweep at construction, and the best test, found on demand.

    Layer t holds the states with t tested voters: a row per tallies
    vector T summing to t, against a column per mask with n - t untested
    bits, in rank order among the masks of that popcount.  It is solved
    from layer t + 1, starting at t = n.  Both certificates read only T and
    the untested count, so each T is checked once and decides its whole
    row: a decided row holds zeros, and the undecided rows, placed first,
    hold the minimum over the mask's untested voters v of costs[v] +
    probs[v][0]*V(child, T+e_1) + probs[v][1]*V(child, T+e_2) + ...,
    summed in that order, where child is the mask with v tested.  The masks
    go in blocks of at most _ORACLE_CELLS (T, voter, mask) cells.  In a
    block, voter[s, m] is mask m's s-th untested voter in ascending order
    and child[s, m] the rank of m with that voter tested; one gather per
    candidate value j takes V(child, T+e_j) for every undecided T and every
    (s, m) from the rows T+e_j of the layer below into total[T, s, m], and
    one minimum reduction over the middle axis, a chain of elementwise
    minima over contiguous (T, m) slabs, writes the block's values.  No
    move is stored: _values maps each T to its row, the stored values
    number estimate_belief_states(n, d) exactly, and value is a lookup.
    best_test sums the same terms in the same order for each untested
    voter, ascending, from the stored layer below and keeps the first
    strict minimum, so its cost is the stored value to the bit and its
    voter the lowest among ties.
    """

    def __init__(self, instance: Instance, objective: str,
                 max_states: int = DEFAULT_MAX_STATES) -> None:
        _check_objective(objective)
        if max_states < 0:
            raise ValueError(f"max_states must be >= 0, got {max_states}")
        estimate = estimate_belief_states(instance.n, instance.d)
        if estimate > max_states:
            raise BudgetExceededError(estimate, max_states)
        self.instance = instance
        self.objective = objective
        self._solve(CERTIFICATES[objective])

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
        costs = np.asarray(inst.costs, dtype=float)
        # probs[j][v]: the chance that voter v votes j + 1.
        probs = np.asarray(inst.probs, dtype=float).T.copy()
        powers = 1 << np.arange(n)
        values: dict = {}
        below = below_rows = None
        for t in range(n, -1, -1):
            untested = n - t
            layer = by_popcount[starts[untested]:starts[untested] + math.comb(n, t)]
            undecided, decided = [], []
            for tallies in _compositions(t, d):
                (undecided if cert(tallies, untested, n) is None else decided).append(tallies)
            rows = {tallies: i for i, tallies in enumerate(undecided + decided)}
            here = np.zeros((len(rows), len(layer)))
            if undecided:
                # kids[j]: the rows T + e_j of the layer below, for every undecided T.
                kids = [below[[below_rows[tallies[:j] + (tallies[j] + 1,) + tallies[j + 1:]]
                               for tallies in undecided]] for j in range(d)]
                block = max(1, _ORACLE_CELLS // (len(undecided) * untested))
                for start in range(0, len(layer), block):
                    part = layer[start:start + block]
                    # voter[s, m]: the s-th untested voter of mask m, ascending;
                    # child[s, m]: the rank of m with that voter tested.
                    voter = np.flatnonzero((part[:, None] & powers).astype(bool)) % n
                    voter = np.ascontiguousarray(voter.reshape(len(part), untested).T)
                    child = rank[part ^ powers[voter]]
                    # total[T, s, m] = costs[v] + p_1*V_1, then + p_j*V_j for
                    # j = 2..d, the order best_test sums in; IEEE * and + commute,
                    # so the in-place form below keeps every bit.
                    total = kids[0].take(child, axis=1)
                    total *= probs[0][voter]
                    total += costs[voter]
                    for j in range(1, d):
                        term = kids[j].take(child, axis=1)
                        term *= probs[j][voter]
                        total += term
                    # Each state's minimum over its untested voters.
                    np.minimum.reduce(total, axis=1,
                                      out=here[:len(undecided), start:start + len(part)])
            for tallies, i in rows.items():
                values[tallies] = here[i]
            below, below_rows = here, rows
        self._values = values

    def _rank_of(self, mask: int, tallies: tuple[int, ...]) -> int:
        """The mask's column in its tallies' row; ValueError unless the
        tallies are d non-negative ints and the mask leaves untested exactly
        the voters they have not counted."""
        n, d = self.instance.n, self.instance.d
        if (len(tallies) != d or not all(isinstance(k, int) and k >= 0 for k in tallies)
                or not 0 <= mask < 1 << n or mask.bit_count() != n - sum(tallies)):
            raise ValueError(f"mask {mask:#b} and tallies {tallies} are not one "
                             f"state of {n} voters")
        return self._rank[mask]

    def value(self, mask: int, tallies: tuple[int, ...]) -> float:
        """Optimal expected cost to finish from the given belief state."""
        r = self._rank_of(mask, tallies)
        return float(self._values[tallies][r])

    def best_test(self, mask: int, tallies: tuple[int, ...]) -> tuple[float, int]:
        """(expected cost, voter) of the best first test from an undecided
        state; ties break toward the lowest voter index.  Both are computed
        from the layer below with the solve's own sums, so the cost is the
        stored value to the bit."""
        self._rank_of(mask, tallies)
        inst = self.instance
        if CERTIFICATES[self.objective](tallies, mask.bit_count(), inst.n) is not None:
            raise ValueError(f"tallies {tallies} already decide the election")
        kids = [self._values[tallies[:j] + (tallies[j] + 1,) + tallies[j + 1:]]
                for j in range(inst.d)]
        best = move = None
        for v in range(inst.n):
            if mask >> v & 1:
                child = self._rank.item(mask ^ 1 << v)
                probs = inst.probs[v]
                total = inst.costs[v] + probs[0] * kids[0].item(child)
                for j in range(1, inst.d):
                    total += probs[j] * kids[j].item(child)
                if best is None or total < best:
                    best, move = total, v
        return best, move

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
    the value function, ties breaking toward the lowest voter index, so it
    has no cheapest-first Phase 1, and its class declares no walks.
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


def _checked_test(strategy: Strategy, cert_fn, state) -> Optional[int]:
    """The strategy's next test in state, or None where it stops.

    Raises StrategyError if the voter is tested already, or if the
    strategy stops without a certificate or reports another outcome than
    the certificate's.
    """
    voter = strategy.next_test(state)
    if voter is None:
        cert = cert_fn(state[2], state[3], strategy.instance.n)
        if cert is None:
            raise StrategyError("strategy stopped without a certificate")
        if cert != strategy.result(state):
            raise StrategyError(
                f"strategy reported {strategy.result(state)} but the "
                f"certificate says {cert}")
    elif not state[1] >> voter & 1:
        raise StrategyError(f"strategy retested voter {voter}")
    return voter


def exact_strategy_cost(strategy: Strategy) -> float:
    """Exact expected cost of a deterministic strategy.

    Walks the strategy's states forward one depth at a time, then sums
    their costs backward.  The frontier holds the distinct states at the
    current depth; each depth keeps, per state, its voter and the indices
    of its d children in the next frontier.  A state holds its untested
    set, so states at different depths differ and no cache is carried
    between depths.

    Where the strategy's own class declares walks (strategies.walks_of),
    the walk settles every child itself, as TwoPhaseStrategy.advance
    would after the reveal, and never calls advance.  A state of a walked
    tag tests the next voter of its order with no next_test:
    _cost_order[n - unknown] for a P1 state, perm[pos] for any other.  A
    state of any other tag asks next_test once (checked by _checked_test).
    Each distinct child tallies vector of a depth is checked against the
    certificate once, among P1 states' children and among the others'
    apart: a decided child gets index -1, worth 0.0, instead of a frontier
    slot, and an undecided one is settled by _settle_p1 for a P1 state,
    once per tallies vector of the depth, or by _kernel_advance for any
    other.  Every state of a class that declares nothing asks next_test
    once, and each (state, value) edge of a state that tests calls advance
    once, for values 1..d in order; its stopping children take frontier
    slots and are checked there.  Equal children merge into the next
    frontier.

    The backward sweep, from the deepest depth, gives a stopping state 0.0
    and a testing state costs[v] + probs[v][0]*V(child_1) + ... +
    probs[v][d-1]*V(child_d), summed in that order.
    Raises StrategyError if the strategy retests a voter, stops while the
    outcome is still uncertain or walks off the end of a round's order.
    The budget counts a state when it enters a frontier, the initial state
    first and then each new child, so for a declared class only undecided
    states count, and raises EvaluationBudgetError on the
    (EXACT_MAX_STATES + 1)-th, before that state is asked anything.
    """
    inst = strategy.instance
    n, d = inst.n, inst.d
    cert_fn = CERTIFICATES[strategy.objective]
    walks = walks_of(strategy)
    order = strategy._cost_order
    frontier = [strategy.initial_state()]
    # States in the frontiers so far, this depth's included.
    reached = 1
    children: dict = {}

    def enter(child) -> int:
        """child's index in the next frontier, counted when it is new."""
        kid = children.get(child)
        if kid is None:
            if reached + len(children) == EXACT_MAX_STATES:
                raise EvaluationBudgetError(EXACT_MAX_STATES)
            kid = children[child] = len(children)
        return kid

    # layers[k][i]: None where the i-th state at depth k stops, else its
    # voter and the indices of its children at depth k + 1 (-1: decided).
    layers = []
    while frontier:
        children = {}
        # Per child tallies vector of this depth: a P1 child's index, and
        # whether any other child is decided.
        settled: dict = {}
        decided: dict = {}
        layer = []
        for state in frontier:
            tag = state[0]
            if tag not in walks:
                voter = _checked_test(strategy, cert_fn, state)
                if voter is None:
                    layer.append(None)
                    continue
                if not walks:
                    layer.append((voter, [enter(strategy.advance(state, voter, j))
                                          for j in range(1, d + 1)]))
                    continue
            elif tag == P1:
                voter = order[n - state[3]]
            else:
                perm, pos = state[-2], state[-1]
                if pos >= len(perm):
                    raise StrategyError("a round's order leaves voters untested")
                voter = perm[pos]
            mask, tallies, unknown = state[1], state[2], state[3] - 1
            if not mask >> voter & 1:
                raise StrategyError(f"strategy retested voter {voter}")
            mask ^= 1 << voter
            kids = []
            if tag == P1:
                for j in range(d):
                    t = tallies[:j] + (tallies[j] + 1,) + tallies[j + 1:]
                    kid = settled.get(t)
                    if kid is None:
                        kid = settled[t] = (
                            -1 if cert_fn(t, unknown, n) is not None
                            else enter(strategy._settle_p1(mask, t, unknown)))
                    kids.append(kid)
            else:
                for j in range(d):
                    t = tallies[:j] + (tallies[j] + 1,) + tallies[j + 1:]
                    done = decided.get(t)
                    if done is None:
                        done = decided[t] = cert_fn(t, unknown, n) is not None
                    kids.append(-1 if done else enter(
                        strategy._kernel_advance(state, mask, t, unknown, j + 1)))
            layer.append((voter, kids))
        layers.append(layer)
        reached += len(children)
        frontier = list(children)
    probs, costs = inst.probs, inst.costs
    # Each depth's values end with a 0.0, the value of a decided child.
    below = [0.0]
    for layer in reversed(layers):
        here = []
        for step in layer:
            if step is None:
                here.append(0.0)
                continue
            voter, kids = step
            total = costs[voter]
            for p, kid in zip(probs[voter], kids):
                total += p * below[kid]
            here.append(total)
        here.append(0.0)
        below = here
    return below[0]


# Uniforms drawn at once while filling a batch's votes: the float64
# draws of a batch are made in slices of whole rows, at most this many
# values a slice (unless one row alone needs more).
_UNIFORM_CELLS = 1 << 16

# Trials in a realization batch: every batch but the last holds this many.
_BATCH_TRIALS = 1 << 14


def _check_seed(seed: int) -> None:
    """ValueError unless seed can key the Philox stream: 0 <= seed < 2**128."""
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")


def sample_realizations(instance: Instance, trials: int, seed: int):
    """Yield realization batches as (batch, n) arrays of votes in 1..d, of
    the narrowest unsigned type that holds d, _BATCH_TRIALS trials a batch.

    Trial t always consumes uniforms [t*n, (t+1)*n) of the Philox stream
    keyed by the seed, so trials are independent of batching, order
    independent, and reproducible.  The uniforms are drawn in slices of
    rows, which continue the stream exactly as one draw would, so only a
    slice of them is held at a time.  Each vote is drawn by inverse
    transform by threshold counts: with cums the cumulative probability
    rows, voter v's vote is 1 plus the number of thresholds cums[v][0],
    ..., cums[v][d-2] at or below its uniform u.  That is the first j with
    u < cums[v][j-1], or d if there is none, whatever the rounding of the
    last cumulative sum.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    cums = np.cumsum(np.asarray(instance.probs, dtype=float), axis=1)
    n, d = instance.n, instance.d
    rows = max(1, _UNIFORM_CELLS // n)
    remaining = trials
    while remaining > 0:
        m = min(_BATCH_TRIALS, remaining)
        remaining -= m
        values = np.ones((m, n), dtype=np.min_scalar_type(d))
        for start in range(0, m, rows):
            u = gen.random((min(rows, m - start), n))
            part = values[start:start + len(u)]
            for k in range(d - 1):
                part += u >= cums[:, k]
        yield values


# Tallies entries, (depth, candidate, trial), per block of the array
# walks: a block's count array holds at most this many, unless one depth
# alone needs more.
_PHASE1_CELLS = 1 << 16


def _walk_orders(strategy: Strategy, batch: np.ndarray, trials: np.ndarray,
                 orders: np.ndarray, row_of: np.ndarray, base: np.ndarray,
                 stops=()):
    """Walk trials of the batch along fixed orders until a rule holds.

    Trial i, batch row trials[i], tests the voters of orders[row_of[i]]
    in turn from tallies base[:, i] (candidates on the first axis, of the
    narrow count type), and leaves at the first test after which the
    certificate holds or one of stops does: stop(counts, unknown, at) is
    an extra array rule over a block's tallies vectors (candidates,
    depths, trials) and untested counts (depths, trials), where at indexes
    the block's trials among trials.  An order lists every voter its trial
    has not tested, each once, so the certificate holds at its end at the
    latest; shorter rows are padded at their end.

    Returns (steps, tallies, decided) over the trials: the number of votes
    each tests, its tallies after them, and whether the certificate holds
    there; where it does not, a stop does.  The rules are the strategy's
    own, so the certificate takes precedence, as in
    TwoPhaseStrategy.advance.  The depths are taken in blocks of as many as
    fit _PHASE1_CELLS tallies entries of the trials still walking: one
    running count over the block, both rules over all its tallies vectors
    at once, and each trial's first depth where one holds.  Blocks bound
    the memory; per block the numpy calls number a few per candidate and
    one per depth.
    """
    n, d = strategy.n, strategy.d
    certified = CERTIFIED_ARRAYS[strategy.objective]
    candidates = np.arange(1, d + 1)[:, None]
    m = len(trials)
    steps = np.empty(m, dtype=np.intp)
    tallies = np.empty((d, m), dtype=base.dtype)
    decided = np.empty(m, dtype=bool)
    # Every rule adds an int32 untested count first, so no sum of the
    # narrow counts wraps.
    unknown0 = n - base.sum(axis=0, dtype=np.int32)
    live = np.arange(m)
    k = 0
    while live.size:
        width = min(orders.shape[1] - k, max(1, _PHASE1_CELLS // (d * live.size)))
        # The votes of the block, taken from the flattened batch.
        cells = orders[row_of[live], k:k + width] + n * trials[live, None]
        # counts[i]: the (candidate, trial) tallies after k + i + 1 tests,
        # a running sum of one add per depth.
        votes_for = batch.take(cells).T[:, None, :] == candidates
        counts = np.empty(votes_for.shape, dtype=base.dtype)
        below = base
        for i in range(width):
            below = np.add(below, votes_for[i], out=counts[i])
        per_candidate = counts.swapaxes(0, 1)
        unknown = unknown0[live] - np.arange(k + 1, k + width + 1, dtype=np.int32)[:, None]
        done = certified(per_candidate, unknown, n)
        leave = done
        for stop in stops:
            leave = leave | stop(per_candidate, unknown, live)
        first = leave.argmax(axis=0)
        exits = leave[first, np.arange(live.size)]
        rows = np.flatnonzero(exits)
        at = first[rows]
        who = live[rows]
        steps[who] = k + 1 + at
        tallies[:, who] = counts[at, :, rows].T
        decided[who] = done[at, rows]
        live, base = live[~exits], below[:, ~exits]
        k += width
    return steps, tallies, decided


def _distinct(keys: np.ndarray):
    """The distinct columns of an integer array, in lexicographic order
    with the first row most significant; each column's index among them;
    and each one's first column."""
    order = np.lexsort(keys[::-1])
    ranked = keys[:, order]
    new = np.ones(keys.shape[1], dtype=bool)
    new[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    group = np.empty(keys.shape[1], dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return ranked[:, new], group, order[new]


class MonteCarloResult(NamedTuple):
    mean: float
    stderr: float


def monte_carlo_cost(strategy: Strategy, trials: int, seed: int) -> MonteCarloResult:
    """Estimate a strategy's expected cost from seeded random realizations.

    Returns the sample mean and its standard error.  The trials of each
    batch from sample_realizations walk together.  Each trial sums its
    test costs in path order from 0.0, so the per-trial costs, and hence
    the estimate, are exactly what independent simulation would produce.

    First the walks, as arrays (_walk_declared): every trial starts in the
    initial state, and walks for as long as it is in a state of a tag the
    strategy's class declares walked (strategies.walks_of; OptimalStrategy
    and adg_abs declare none), each distinct exit settled once through the
    strategy's own _settle_p1 or, from one round to the next, advance.
    No next_test runs there, and no advance in Phase 1.  Trials that leave
    on the certificate are done.  The others go on, from the states they
    left the walks in, one depth at a time (_walk_kernels), each distinct
    state asking next_test once, checked as exact_strategy_cost checks it,
    and each distinct (state, value) edge calling advance once.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_seed(seed)
    inst = strategy.instance
    init = strategy.initial_state()
    out = np.zeros(trials)
    done = 0
    for batch in sample_realizations(inst, trials, seed):
        cum = out[done:done + len(batch)]
        done += len(batch)
        entries, entry_of = _walk_declared(strategy, batch, cum, init)
        _walk_kernels(strategy, batch, cum, entries, entry_of)
    mean = float(out.mean())
    stderr = float(out.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloResult(mean, stderr)


def _voter_type(n: int):
    """The narrowest type that holds the index of each of n voters."""
    return np.min_scalar_type(n - 1)


def _count_type(n: int):
    """The narrowest type that holds a tally of n voters (the votes come
    narrowed from sample_realizations)."""
    return np.min_scalar_type(-n - 1)


def _check_round(order, mask: int) -> None:
    """StrategyError unless a walk's order lists every voter untested in
    mask, each once."""
    for v in order:
        if not mask >> v & 1:
            raise StrategyError(f"strategy retested voter {v}")
        mask ^= 1 << v
    if mask:
        raise StrategyError("a round's order leaves voters untested")


def _walk_declared(strategy: Strategy, batch: np.ndarray, cum: np.ndarray, init):
    """Walk the batch's trials from init through the strategy's declared
    walks (strategies.walks_of), adding each test's cost to cum (see
    monte_carlo_cost).

    Returns (entries, entry_of) for _walk_kernels: the states the trials
    leave the walks in, which are not walked, by ascending depth, and
    entry_of[t] the index of trial t's, or -1 for a trial already done.

    Each pass takes the states the trials are in: those of a tag the map
    leaves out become entries, and every other one walks its order, the
    voters perm[pos:] of its (perm, pos) or, for a P1 state,
    _cost_order[n - unknown:].  One order row per distinct (order,
    position), each checked against the untested sets that walk it, and
    the trials walk them all through _walk_orders at once, each until the
    certificate or its state's rule holds: core.phase1_stop_array for
    PHASE1_STOP, core.refuted_array on _target(state) for TARGET_REFUTED.
    The trials of a state have paid the same costs in the same order, so
    each pays the state's running sum of the costs along its order, from
    the state's cost on; these sums are taken for a slice of the states at
    a time, which bounds their memory as the walk's blocks bound its own.
    A trial that leaves without the certificate hands over, once per
    distinct (state, steps, tallies), through the strategy's own code into
    a state of the next pass: a P1 state through _settle_p1 at the point
    where it leaves, any other through advance, which makes the last step
    from the state before it (the state with the first four slots and pos
    of that point).
    """
    n = strategy.n
    walks = walks_of(strategy)
    costs = np.asarray(strategy.instance.costs, dtype=float)
    cost_order = tuple(strategy._cost_order)
    entries: list = []
    entry_of = np.full(len(batch), -1, dtype=np.intp)
    states = [init]
    trials = np.arange(len(batch))
    at = np.zeros(len(batch), dtype=np.intp)
    while trials.size:
        # index[s]: state s's index among the walking states, else ~ its
        # index among the entries.
        walking, index = [], []
        for state in states:
            if state[0] in walks:
                index.append(len(walking))
                walking.append(state)
            else:
                index.append(~len(entries))
                entries.append(state)
        if len(walking) < len(states):
            at = np.array(index, dtype=np.intp)[at]
            out = at < 0
            entry_of[trials[out]] = ~at[out]
            trials, at = trials[~out], at[~out]
            if not trials.size:
                break
        row_at: dict = {}
        row_of = [row_at.setdefault((cost_order, n - state[3]) if state[0] == P1
                                    else state[-2:], len(row_at)) for state in walking]
        rows = [order[pos:] for order, pos in row_at]
        for r, mask in {(r, state[1]) for r, state in zip(row_of, walking)}:
            _check_round(rows[r], mask)
        orders = np.zeros((len(rows), max(map(len, rows))), dtype=_voter_type(n))
        for r, order in enumerate(rows):
            orders[r, :len(order)] = order
        rules = [walks[state[0]] for state in walking]
        stops = []
        if TARGET_REFUTED in rules:
            target = np.array([strategy._target(state) if rule == TARGET_REFUTED else 0
                               for state, rule in zip(walking, rules)], dtype=np.intp)[at]
            stops.append(lambda counts, unknown, live:
                         refuted_array(counts, unknown, n, target[live]))
        if PHASE1_STOP in rules:
            phase1 = np.array([rule == PHASE1_STOP for rule in rules])[at]
            stops.append(lambda counts, unknown, live: phase1[live] & phase1_stop_array(
                counts, unknown, n, strategy.objective))
        state_row = np.array(row_of, dtype=np.intp)
        base = np.array([state[2] for state in walking], dtype=_count_type(n)).T
        steps, tallies, decided = _walk_orders(strategy, batch, trials, orders,
                                               state_row[at], base[:, at], stops)
        # paid[s - lo, e]: the cost of state s's trials after e tests of its
        # order, for as many states at a time as fit _PHASE1_CELLS costs.
        span = max(1, _PHASE1_CELLS // (orders.shape[1] + 1))
        for lo in range(0, len(walking), span):
            paid = np.zeros((min(span, len(walking) - lo), orders.shape[1] + 1))
            paid[:, 1:] = costs[orders[state_row[lo:lo + span]]]
            part = (slice(None) if len(walking) <= span else
                    np.flatnonzero((at >= lo) & (at < lo + span)))
            paid[at[part] - lo, 0] = cum[trials[part]]
            np.cumsum(paid, axis=1, out=paid)
            cum[trials[part]] = paid[at[part] - lo, steps[part]]
        going = np.flatnonzero(~decided)
        keys, group, first = _distinct(np.vstack([at[going], steps[going],
                                                  tallies[:, going]]))
        states = []
        # prefix[r][e]: the mask of the first e voters of row r.
        prefix: dict = {}
        for (s, e, *after), i in zip(keys.T.tolist(), first.tolist()):
            state = walking[s]
            r = row_of[s]
            if r not in prefix:
                prefix[r] = prefix_masks(rows[r])
            mask = state[1] ^ prefix[r][e - 1]
            voter = rows[r][e - 1]
            if state[0] == P1:
                states.append(strategy._settle_p1(mask ^ 1 << voter, tuple(after),
                                                  state[3] - e))
                continue
            value = int(batch[trials[going[i]], voter])
            before = list(after)
            before[value - 1] -= 1
            states.append(strategy.advance(
                state[:1] + (mask, tuple(before), state[3] - e + 1) + state[4:-1]
                + (state[-1] + e - 1,), voter, value))
        trials, at = trials[going], group
    by_depth = np.argsort([-state[3] for state in entries], kind="stable")
    # rank[e]: entry e's index by depth; rank[-1] keeps a done trial's -1.
    rank = np.full(len(entries) + 1, -1, dtype=np.intp)
    rank[by_depth] = np.arange(len(entries))
    return [entries[i] for i in by_depth.tolist()], rank[entry_of]


def _walk_kernels(strategy: Strategy, batch: np.ndarray, cum: np.ndarray,
                  entries: list, entry_of: np.ndarray) -> None:
    """Walk the batch's trials from their entry states to the end, one
    depth at a time, adding each test's cost to cum (see monte_carlo_cost).

    entries are the entry states by ascending depth, the tested count
    n - unknown, and entry_of[t] is the index of trial t's entry, or -1
    for a trial already done.

    The frontier is the list of distinct states at the current depth: the
    states the entries of that depth settled into, merged with the children
    of the depth before, and each active trial holds the index of its state
    in it.  Each frontier state asks next_test once and is checked as
    exact_strategy_cost checks it (StrategyError on a retest, or on a stop
    without the certificate the strategy reports); the trials whose state
    stops leave, the rest are charged their test, and each distinct
    (state, value) edge calls advance once.  The edges are grouped without
    sorting: a trial's edge key is its state's index times d plus its value
    minus 1, a dense table over the len(frontier) * d keys marks the keys
    in use, and the marked keys, ascending, are the edges; the edges'
    child indices are written back into the table at once, from which
    every trial reads its next state.  Equal children merge, so equal
    states share all their work.  The votes are read from the flattened
    batch, and the trial arrays are compressed only at a depth where some
    frontier state stops.  A state holds its untested set, so states at
    different depths differ: no cache is carried between depths, and a
    frontier never holds more states than its batch has trials.
    """
    cert_fn = CERTIFICATES[strategy.objective]
    costs = np.asarray(strategy.instance.costs, dtype=float)
    n, d = strategy.n, strategy.d
    entry_depth = [n - state[3] for state in entries]
    trial = at = np.empty(0, dtype=np.intp)
    children: dict = {}
    g = 0
    depth = entry_depth[0] if entries else 0
    while True:
        h = g
        while h < len(entries) and entry_depth[h] == depth:
            h += 1
        if h > g:
            slots = [children.setdefault(state, len(children)) for state in entries[g:h]]
            joining = np.flatnonzero((entry_of >= g) & (entry_of < h))
            trial = np.concatenate([trial, joining])
            at = np.concatenate([at, np.array(slots)[entry_of[joining] - g]])
            g = h
        if not trial.size:
            if g == len(entries):
                return
            depth = entry_depth[g]
            continue
        frontier = list(children)
        voters = []
        for state in frontier:
            voter = _checked_test(strategy, cert_fn, state)
            voters.append(-1 if voter is None else voter)
        voter_of = np.array(voters, dtype=np.intp)[at]
        if -1 in voters:
            live = voter_of >= 0
            trial, at, voter_of = trial[live], at[live], voter_of[live]
        cum[trial] += costs[voter_of]
        key = at * d + batch.take(trial * n + voter_of) - 1
        table = np.zeros(len(frontier) * d, dtype=np.intp)
        table[key] = 1
        edges = np.flatnonzero(table)
        children = {}
        kids = []
        for edge in edges.tolist():
            node, value = divmod(edge, d)
            child = strategy.advance(frontier[node], voters[node], value + 1)
            kids.append(children.setdefault(child, len(children)))
        table[edges] = kids
        at = table[key]
        depth += 1


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
