"""Ground truth and measurement.

optimal_expected_cost() computes the exact optimum of the vote-inspection
problem by dynamic programming over belief states.  Because every
certificate and all future dynamics depend only on the per-candidate
tallies and the set of untested voters, (untested set, tallies) is a
sufficient state, which keeps the DP at desk scale rather than d^n.  The
DP runs bottom-up, one layer per tested count, and each layer is one numpy
array with a row per tallies vector and a column per untested set, plus a
+inf sentinel column.  The certificates read only the tallies and the
untested count, so each tallies vector is checked once; the undecided rows
are then solved with one column gather of the layer below per voter, so
the numpy calls grow with n per layer, not per tallies vector.  The layers
hold exactly estimate_belief_states(n, d) values besides their sentinels.

exact_strategy_cost() evaluates any deterministic strategy exactly by
branching over the d outcomes of every test it makes; monte_carlo_cost()
estimates the same quantity by seeded sampling.

The evaluator memoizes on the strategy's whole state tuple, for the length
of one call, so it walks a DAG of distinct states rather than the decision
tree.  Decided states are memoized too (at 0.0), so a state is expanded and
checked once however many paths reach it.  monte_carlo_cost walks all the
trials of a realization batch together.  A strategy whose class declares
the plain cheapest-first Phase 1 (strategies.phase1_of) has that phase
walked as arrays: every trial tests the same voters in the same order
there, so running counts of its votes along the cost order, and the array
forms of the certificate and of the Phase 1 stop (core), give each
trial's exit depth and tallies for a whole block of depths in a few numpy
calls, with no strategy step; each distinct kernel entry is then settled
once.  From there the kernels go one depth at a time: trials that are in
equal states share that state's next test, and trials that reveal the
same value there share its transition.  Every state holds its untested
set, so states at different depths differ and each depth's frontier is
merged on its own, with no cache carried between depths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import (CERTIFIED_ARRAYS, CERTIFICATES, Instance,
                   phase1_stop_array)
from .strategies import (DONE, NO_PHASE1, P1, PHASE1_THEN_KERNEL, NaiveCheapest,
                         Strategy, phase1_of)

DEFAULT_MAX_STATES = 30_000


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

    Layer t holds the states with t tested voters: a row per tallies
    vector T summing to t, against a column per mask with n - t untested
    bits, in rank order among the masks of that popcount, and one last
    column of +inf.  It is solved from layer t + 1, starting at t = n.
    Both certificates read only T and the untested count, so each T is
    checked once and decides its whole row: a decided row holds zeros, and
    the undecided rows, placed first, hold the minimum over voters v of
    costs[v] + probs[v][0]*V(child, T+e_1) + probs[v][1]*V(child, T+e_2)
    + ..., summed in that order.  Per voter v, one gather takes the column
    of every mask's child, the mask with v tested, from every row of the
    layer below, or the +inf column where v is tested already, so such a
    mask's sum is +inf and never wins; d row gathers pick T+e_1, ..., T+e_d
    for every undecided T.  Voters go in ascending order into a running
    minimum whose strict < keeps the lowest voter on ties.  _values and
    _moves map each T to its row without the sentinel: the stored values
    number estimate_belief_states(n, d) exactly, and value and best_test
    are lookups.
    """

    def __init__(self, instance: Instance, objective: str,
                 max_states: int = DEFAULT_MAX_STATES) -> None:
        if objective not in CERTIFICATES:
            raise ValueError(f"objective must be 'abs' or 'rel', got {objective!r}")
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
        voters = np.arange(n)[:, None]
        values: dict = {}
        moves: dict = {}
        below = below_rows = width_below = None
        for t in range(n, -1, -1):
            untested = n - t
            layer = by_popcount[starts[untested]:starts[untested] + math.comb(n, t)]
            width = len(layer)
            undecided, decided = [], []
            for tallies in _compositions(t, d):
                (undecided if cert(tallies, untested, n) is None else decided).append(tallies)
            rows = {tallies: i for i, tallies in enumerate(undecided + decided)}
            here = np.zeros((len(rows), width + 1))
            here[:, width] = math.inf
            best = here[:len(undecided), :width]
            best.fill(math.inf)
            move = np.full(best.shape, -1, dtype=np.intp)
            if undecided:
                kids = np.array([[below_rows[tallies[:j] + (tallies[j] + 1,) + tallies[j + 1:]]
                                  for tallies in undecided] for j in range(d)])
                # child[v]: each mask's child rank with v tested, or the
                # sentinel column where v is tested already.
                child = np.where(layer >> voters & 1, rank[layer ^ 1 << voters], width_below)
                for v in range(n):
                    gathered = below[:, child[v]]
                    row = inst.probs[v]
                    total = inst.costs[v] + row[0] * gathered[kids[0]]
                    for j in range(1, d):
                        total += row[j] * gathered[kids[j]]
                    better = total < best
                    np.copyto(best, total, where=better)
                    np.copyto(move, v, where=better)
            for tallies, i in rows.items():
                values[tallies] = here[i, :width]
            for i, tallies in enumerate(undecided):
                moves[tallies] = move[i]
            below, below_rows, width_below = here, rows, width
        self._values = values
        self._moves = moves

    def _rank_of(self, mask: int, tallies: tuple[int, ...]) -> int:
        """The mask's column in its tallies' row; ValueError unless the mask
        leaves untested exactly the voters the tallies have not counted."""
        n = self.instance.n
        if not 0 <= mask < 1 << n or mask.bit_count() != n - sum(tallies):
            raise ValueError(f"mask {mask:#b} and tallies {tallies} are not one "
                             f"state of {n} voters")
        return self._rank[mask]

    def value(self, mask: int, tallies: tuple[int, ...]) -> float:
        """Optimal expected cost to finish from the given belief state."""
        return float(self._values[tallies][self._rank_of(mask, tallies)])

    def best_test(self, mask: int, tallies: tuple[int, ...]) -> tuple[float, int]:
        """(expected cost, voter) of the best first test from an undecided
        state; ties break toward the lowest voter index."""
        r = self._rank_of(mask, tallies)
        moves = self._moves.get(tallies)
        if moves is None:
            raise ValueError(f"tallies {tallies} already decide the election")
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
    the value function, ties breaking toward the lowest voter index, so it
    has no cheapest-first Phase 1.
    """

    phase1 = NO_PHASE1

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

    Follows the strategy recursively, branching over the d outcomes of each
    test weighted by their probabilities.  A state determines everything
    that follows it, so the decision tree is evaluated as a DAG of distinct
    states: each state's cost, decided states' 0.0 included, is memoized for
    the length of this call, and next_test runs once per distinct state.
    Raises StrategyError if the strategy retests a voter or stops while the
    outcome is still uncertain.
    """
    inst = strategy.instance
    cert_fn = CERTIFICATES[strategy.objective]
    probs = inst.probs
    costs = inst.costs
    d = inst.d
    memo: dict = {}

    def rec(state) -> float:
        hit = memo.get(state)
        if hit is not None:
            return hit
        voter = _checked_test(strategy, cert_fn, state)
        if voter is None:
            memo[state] = 0.0
            return 0.0
        row = probs[voter]
        total = costs[voter]
        for j in range(1, d + 1):
            total += row[j - 1] * rec(strategy.advance(state, voter, j))
        memo[state] = total
        return total

    return rec(strategy.initial_state())


def sample_realizations(instance: Instance, trials: int, seed: int,
                        chunk: int = 1 << 14):
    """Yield realization batches as (batch, n) arrays of votes in 1..d, of
    the narrowest unsigned type that holds d.

    Trial t always consumes uniforms [t*n, (t+1)*n) of the Philox stream
    keyed by the seed, so trials are independent of batching, order
    independent, and reproducible.  Each vote is drawn by inverse transform
    by threshold counts: with cums the cumulative probability rows, voter
    v's vote is 1 plus the number of thresholds cums[v][0], ...,
    cums[v][d-2] at or below its uniform u.  That is the first j with
    u < cums[v][j-1], or d if there is none, whatever the rounding of the
    last cumulative sum.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    cums = np.cumsum(np.asarray(instance.probs, dtype=float), axis=1)
    n, d = instance.n, instance.d
    remaining = trials
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        u = gen.random((m, n))
        values = np.ones((m, n), dtype=np.min_scalar_type(d))
        for k in range(d - 1):
            values += u >= cums[:, k]
        del u  # not kept alive while the consumer walks the batch
        yield values


# Tallies entries, (depth, candidate, trial), per block of the array
# Phase 1: a block's count array holds at most this many, unless one depth
# alone needs more.
_PHASE1_CELLS = 1 << 16


def _phase1_exits(strategy: Strategy, batch: np.ndarray):
    """Where each trial of the batch leaves the cheapest-first Phase 1.

    Returns (depth, tallies, decided) arrays over the trials: the number of
    votes the trial tests in Phase 1, its tallies after them (candidates
    on the first axis), and whether the certificate holds there; where it
    does not, the Phase 1 stop does, and the trial hands over to the
    kernel.  The certificate takes precedence, as in
    TwoPhaseStrategy.advance.  A strategy with PHASE1_UNTIL_CERTIFICATE
    leaves on the certificate only.  Every trial tests the voters in
    _cost_order, so its tallies at each depth are running counts of its
    votes in that order.  The depths are taken in blocks of as many as
    fit _PHASE1_CELLS tallies entries of the trials still in Phase 1: one
    running count over the block, both rules over all its tallies vectors
    at once, and each trial's first depth where one holds.  Blocks bound
    the memory; per block the numpy calls number a few per candidate and
    one per depth.
    """
    n, d = strategy.n, strategy.d
    objective = strategy.objective
    certified = CERTIFIED_ARRAYS[objective]
    stops = phase1_of(strategy) == PHASE1_THEN_KERNEL
    order = np.array(strategy._cost_order, dtype=np.intp)
    candidates = np.arange(1, d + 1)[:, None]
    # The narrowest type that holds the tallies (the votes come narrowed
    # from sample_realizations); every rule adds an int32 untested count
    # first, so no sum wraps.
    count_type = np.min_scalar_type(-n - 1)
    m = len(batch)
    depth = np.empty(m, dtype=np.intp)
    tallies = np.empty((d, m), dtype=count_type)
    decided = np.empty(m, dtype=bool)
    live = np.arange(m)
    base = np.zeros((d, m), dtype=count_type)
    k = 0
    while live.size:
        width = min(n - k, max(1, _PHASE1_CELLS // (d * live.size)))
        # counts[i]: the (candidate, trial) tallies after k + i + 1 tests,
        # a running sum of one add per depth.
        votes_for = batch[live[:, None], order[k:k + width]].T[:, None, :] == candidates
        counts = np.empty(votes_for.shape, dtype=count_type)
        below = base
        for i in range(width):
            below = np.add(below, votes_for[i], out=counts[i])
        per_candidate = counts.swapaxes(0, 1)
        unknown = np.arange(n - k - 1, n - k - width - 1, -1, dtype=np.int32)[:, None]
        done = certified(per_candidate, unknown, n)
        leave = done
        if stops:
            leave = done | phase1_stop_array(per_candidate, unknown, n, objective)
        first = leave.argmax(axis=0)
        exits = leave[first, np.arange(live.size)]
        rows = np.flatnonzero(exits)
        at = first[rows]
        who = live[rows]
        depth[who] = k + 1 + at
        tallies[:, who] = counts[at, :, rows].T
        decided[who] = done[at, rows]
        live, base = live[~exits], below[:, ~exits]
        k += width
    return depth, tallies, decided


class MonteCarloResult(NamedTuple):
    mean: float
    stderr: float


def monte_carlo_cost(strategy: Strategy, trials: int, seed: int) -> MonteCarloResult:
    """Estimate a strategy's expected cost from seeded random realizations.

    Returns the sample mean and its standard error.  The trials of each
    batch from sample_realizations walk together.

    Phase 1 first, as arrays, when the strategy's class declares that its
    initial P1 state runs the plain cheapest-first Phase 1
    (strategies.phase1_of; OptimalStrategy and adg_abs do not):
    _phase1_exits finds the depth at which each trial leaves it, and the
    trial is charged the sum of the first that many costs along
    _cost_order, accumulated in that order from 0.0.  Trials that leave
    on the certificate are done.  The others enter the kernel:
    each distinct (depth, tallies) is settled once, through the strategy's
    own _settle_p1, into the state its trials enter at that depth.  No
    next_test or advance runs in Phase 1.  Otherwise (no declared Phase 1,
    or an initial state that is already a kernel state, as abs4's at
    d = 2) all trials enter at depth 0, in the initial state.

    Then the kernels, one depth at a time.  The frontier is the list of
    distinct states at the current depth: the states the entries of that
    depth settled into, merged with the children of the depth before, and
    each active trial holds the index of its state in it.  Each frontier
    state asks next_test once and is checked as exact_strategy_cost checks
    it (StrategyError on a retest, or on a stop without the certificate
    the strategy reports); the trials whose state stops leave, the rest
    are charged their test, and each distinct (state, value) edge calls
    advance once.  The edges are grouped without sorting: a trial's edge
    key is its state's index times d plus its value minus 1, a dense table
    over the len(frontier) * d keys marks the keys in use, and the marked
    keys, ascending, are the edges; each edge writes its child's index
    back into the table, from which every trial reads its next state.
    Equal children merge, so equal states share all their work.  A state
    holds its untested set, so states at different depths differ: no cache
    is carried between depths, and a frontier never holds more states than
    its batch has trials.  Each batch of up to 16,384 trials walks its own
    frontier.  Each trial sums its test costs in path order from 0.0, so
    the per-trial costs, and hence the estimate, are exactly what
    independent simulation would produce.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    inst = strategy.instance
    n = inst.n
    init = strategy.initial_state()
    in_arrays = phase1_of(strategy) != NO_PHASE1 and init[0] == P1
    if in_arrays:
        order = strategy._cost_order
        prefix = np.cumsum([0.0] + [inst.costs[v] for v in order])
        masks = [init[1]]
        for v in order:
            masks.append(masks[-1] ^ 1 << v)
    out = np.zeros(trials)
    done = 0
    for batch in sample_realizations(inst, trials, seed):
        cum = out[done:done + len(batch)]
        done += len(batch)
        if in_arrays:
            depth, tallies, decided = _phase1_exits(strategy, batch)
            cum[:] = prefix[depth]
            entering = np.flatnonzero(~decided)
            keys, group = np.unique(np.vstack([depth[entering], tallies[:, entering]]),
                                    axis=1, return_inverse=True)
            entries = [strategy._settle_p1(masks[e], tuple(t), n - e)
                       for e, *t in keys.T.tolist()]
            entry_of = np.full(len(batch), -1)
            entry_of[entering] = group.reshape(-1)
        else:
            entries = [init]
            entry_of = np.zeros(len(batch), dtype=np.intp)
        _walk_kernels(strategy, batch, cum, entries, entry_of)
    mean = float(out.mean())
    stderr = float(out.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloResult(mean, stderr)


def _walk_kernels(strategy: Strategy, batch: np.ndarray, cum: np.ndarray,
                  entries: list, entry_of: np.ndarray) -> None:
    """Walk the batch's trials from their entry states to the end, one
    depth at a time, adding each test's cost to cum (see monte_carlo_cost).

    entries are the entry states by ascending depth, the tested count
    n - unknown, and entry_of[t] is the index of trial t's entry, or -1
    for a trial already done.
    """
    cert_fn = CERTIFICATES[strategy.objective]
    costs = np.asarray(strategy.instance.costs, dtype=float)
    d = strategy.d
    entry_depth = [strategy.n - state[3] for state in entries]
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
        live = voter_of >= 0
        trial, at, voter_of = trial[live], at[live], voter_of[live]
        cum[trial] += costs[voter_of]
        key = at * d + batch[trial, voter_of] - 1
        seen = np.zeros(len(frontier) * d, dtype=bool)
        seen[key] = True
        edges = np.flatnonzero(seen)
        children = {}
        child_of = np.empty(len(seen), dtype=np.intp)
        for edge in edges.tolist():
            node, value = divmod(edge, d)
            child = strategy.advance(frontier[node], voters[node], value + 1)
            child_of[edge] = children.setdefault(child, len(children))
        at = child_of[key]
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
