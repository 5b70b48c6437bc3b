"""Composed vote-inspection strategies.

Every strategy here is a deterministic state machine over immutable states,
so the same implementation serves three consumers: transcript runs on a
fixed realization, exact expected-cost evaluation (which branches over all
outcomes of each test), and Monte Carlo estimation.

State layout (all strategies): a tuple whose first four slots are

    (tag, mask, tallies, unknown, ...)

where bit v of the int mask is set while voter v is untested, tallies[j-1]
counts the revealed votes for candidate j, and unknown is the popcount of
mask.  (mask, tallies) is also the state the exact oracle (oracle._Oracle)
solves over, and OptimalStrategy steps through these same tuples.
Strategy-specific slots follow.  Every slot is hashable, so equal states
hash equally, and equal states must have equal futures (the same next_test,
advance and result), because the exact evaluator memoizes on them.
Terminal states are (DONE, mask, tallies, unknown, outcome).

The problem, not the strategy, fixes when inspection stops: as soon as the
revealed votes hold a certificate for the strategy's objective (the
core.CERTIFICATES entry), and the outcome reported is the certificate's.
The strategies differ only in which vote they inspect next.  The common
two-phase shape: Phase 1 inspects votes by increasing cost until at most
two candidates remain in contention, then a per-candidate kernel chooses
the rest.  For the absolute objective "in contention" means "can
still collect a majority"; for the relative objective it means "can still
finish on top (win or tie for the lead)", which is the weakest condition
under which the outcome becomes a function of the two remaining candidates
alone.

The state machine is written once, in TwoPhaseStrategy.  Its advance makes
the reveal and checks the certificate, and is the only place that builds a
DONE state; an undecided Phase 1 state then goes on cheapest-first or, in
_settle_p1, picks the leaders (alpha, beta) and calls _enter_kernel.  Each
strategy adds only its kernel, through _enter_kernel and two hooks,
_kernel_test(state) and _kernel_advance(state, mask, tallies, unknown,
value), none of which ever sees a decided state or returns DONE.  Slots
after the first four, by kernel state:

    abs4             (alpha, beta); KERNEL_A verifies alpha, KERNEL_B beta
    abs6_threeround  abs4's (alpha, beta), then (perm, pos) of the round's walk
    abs10_tworound   (perm, pos) of the one two-candidate walk, tag KERNEL_A
    rel8             KERNEL_A (alpha, beta, items, counts, theta, voter,
                     charges); KERNEL_B (alpha, beta)
    adg_abs          (voter, charges); no Phase 1, every undecided state
                     is a KERNEL_A state
    naive_abs/_rel   none; Phase 1 never hands over

phase1_trace observes the same state machine and keeps no Phase 1 of its
own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (CERTIFICATES, Instance, PartialAssignment,
                   blocking_threshold, majority_threshold, toppers_from_tallies,
                   viable_from_tallies)
from .dualgreedy import adg_raise, adg_select
from .goals import abs_majority_goal, ternary_threshold_goal
from .kernels import (_sbb_pick, kofn_permutation_for, refutation_order,
                      support_order, two_candidate_round_robin)

# State tags.
P1, KERNEL_A, KERNEL_B, DONE = 0, 1, 2, 3

_PHASE_LABEL = {P1: 1, KERNEL_A: 2, KERNEL_B: 3}


def _check_realization(instance: Instance, realization: Sequence[int]) -> None:
    if len(realization) != instance.n:
        raise ValueError(f"realization must list {instance.n} votes")
    for i, v in enumerate(realization):
        if not 1 <= v <= instance.d:
            raise ValueError(f"realization[{i}]: vote {v!r} outside 1..{instance.d}")


def _phase1_stop(tallies: Sequence[int], unknown: int, n: int, objective: str) -> bool:
    """True once at most two candidates remain in contention."""
    if objective == "abs":
        return len(viable_from_tallies(tallies, unknown, n, "abs")) <= 2
    return len(toppers_from_tallies(tallies, unknown)) <= 2


def _pick_leaders(tallies: Sequence[int], unknown: int, n: int,
                  objective: str) -> tuple[int, int]:
    """The two candidates the second phase will examine, ties by index.

    abs: the two smallest capped votes-against counts (the best-supported
    candidates).  rel: the two largest tallies.
    """
    d = len(tallies)
    tested = n - unknown
    if objective == "abs":
        blk = blocking_threshold(n)
        key = [min(tested - t, blk) for t in tallies]
        alpha = min(range(d), key=lambda j: (key[j], j)) + 1
        beta = min((j for j in range(d) if j + 1 != alpha),
                   key=lambda j: (key[j], j)) + 1
    else:
        alpha = max(range(d), key=lambda j: (tallies[j], -j)) + 1
        beta = max((j for j in range(d) if j + 1 != alpha),
                   key=lambda j: (tallies[j], -j)) + 1
    return alpha, beta


def _first_untested(order: Sequence[int], mask: int) -> int:
    """The first voter of order still untested in mask."""
    for v in order:
        if mask >> v & 1:
            return v
    raise AssertionError("no untested voter left")


def _adg_step(goal, costs, probs, untested, counts, charges):
    """One dual-greedy selection from a counts-keyed state.

    The goal is symmetric, so the partial vector is built from the counts:
    None at the untested positions and, elsewhere, value v as many times as
    counts (pairs (v, count)) says, in no particular order.  Returns the
    chosen item and the per-item charges after the raise that chose it.
    """
    b = [v for v, c in counts for _ in range(c)]
    for i in untested:  # ascending, so each None lands at its own index
        b.insert(i, None)
    charged = dict(enumerate(charges))
    star, rate, weights = adg_select(goal, costs, probs, b, charged, untested)
    return star, tuple(adg_raise(charged, rate, weights).values())


@dataclass(frozen=True)
class TranscriptStep:
    voter: int
    value: int
    cum_cost: float


@dataclass(frozen=True)
class Transcript:
    """Ordered record of one strategy run ending in an election outcome.

    phases[i] is the index into steps where the (i+1)-th executed phase
    begins; a phase that performs no tests leaves no mark.
    """

    algo: str
    steps: tuple[TranscriptStep, ...]
    phases: tuple[int, ...]
    result: int

    @property
    def cost(self) -> float:
        return self.steps[-1].cum_cost if self.steps else 0.0

    def tested_voters(self) -> list[int]:
        return [s.voter for s in self.steps]

    def to_json(self) -> str:
        # Voters are 1-based in the serialized form.
        return json.dumps({
            "algo": self.algo,
            "steps": [{"voter": s.voter + 1, "value": s.value, "cum_cost": s.cum_cost}
                      for s in self.steps],
            "phases": list(self.phases),
            "result": self.result,
        })

    @classmethod
    def from_json(cls, text: str) -> "Transcript":
        obj = json.loads(text)
        steps = tuple(TranscriptStep(s["voter"] - 1, s["value"], s["cum_cost"])
                      for s in obj["steps"])
        return cls(algo=obj["algo"], steps=steps, phases=tuple(obj["phases"]),
                   result=obj["result"])


class Strategy:
    """The protocol's shared plumbing: instance access, results, reveals,
    cached orderings."""

    name = "strategy"
    objective = "abs"

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self._cert = CERTIFICATES[self.objective]
        self.n = instance.n
        self.d = instance.d
        self.maj = majority_threshold(self.n)
        self.blk = blocking_threshold(self.n)
        self._cost_order = sorted(range(self.n),
                                  key=lambda v: (instance.costs[v], v))
        self._orders: dict[tuple[str, int], list[int]] = {}

    # Protocol: initial_state() -> state, next_test(state) -> voter | None,
    # advance(state, voter, value) -> state, result(state) -> outcome.

    def result(self, state) -> int:
        if state[0] != DONE:
            raise ValueError("strategy has not finished")
        return state[4]

    def phase_of(self, state) -> int:
        return _PHASE_LABEL.get(state[0], 0)

    def _support(self, candidate: int) -> list[int]:
        key = ("s", candidate)
        if key not in self._orders:
            self._orders[key] = support_order(self.instance, candidate)
        return self._orders[key]

    def _refute(self, candidate: int) -> list[int]:
        key = ("r", candidate)
        if key not in self._orders:
            self._orders[key] = refutation_order(self.instance, candidate)
        return self._orders[key]

    def _untested(self, mask: int) -> list[int]:
        """The untested voters of mask, in increasing index."""
        return [v for v in range(self.n) if mask >> v & 1]

    def _cheapest_untested(self, mask: int) -> int:
        return _first_untested(self._cost_order, mask)

    @staticmethod
    def _reveal(mask: int, tallies: tuple[int, ...], unknown: int,
                voter: int, value: int) -> tuple[int, tuple[int, ...], int]:
        if not mask >> voter & 1:
            raise ValueError(f"voter {voter} already inspected")
        t = list(tallies)
        t[value - 1] += 1
        return mask ^ (1 << voter), tuple(t), unknown - 1


class TwoPhaseStrategy(Strategy):
    """The one state machine: Phase 1, then a per-strategy kernel.

    next_test and advance are written here once.  A DONE state tests
    nothing.  advance reveals the value and stops in a DONE state, with
    the certificate's outcome, as soon as the tallies hold a certificate;
    the initial state never does, since n >= 1.  Otherwise a P1 state,
    which tests its cheapest untested voter, settles through _settle_p1.
    Every other state is a kernel state, which the strategy steps through
    two hooks: _kernel_test(state) -> voter and _kernel_advance(state,
    mask, tallies, unknown, value) -> state, the latter given the state's
    own first slots after the reveal of value.  _enter_kernel builds the
    first kernel state.  The hooks and _enter_kernel only ever see
    undecided tallies and never return a DONE state.

    The two methods live here, below Strategy, and nowhere else in this
    module: perfbench's tracer counts the calls of next_test and advance
    where a subclass of Strategy defines them.
    """

    def initial_state(self):
        return self._settle_p1((1 << self.n) - 1, (0,) * self.d, self.n)

    def next_test(self, state) -> Optional[int]:
        tag = state[0]
        if tag == DONE:
            return None
        if tag == P1:
            return self._cheapest_untested(state[1])
        return self._kernel_test(state)

    def advance(self, state, voter: int, value: int):
        mask, tallies, unknown = self._reveal(state[1], state[2], state[3],
                                              voter, value)
        cert = self._cert(tallies, unknown, self.n)
        if cert is not None:
            return (DONE, mask, tallies, unknown, cert)
        if state[0] == P1:
            return self._settle_p1(mask, tallies, unknown)
        return self._kernel_advance(state, mask, tallies, unknown, value)

    def _settle_p1(self, mask, tallies, unknown):
        """Undecided Phase 1 state: still cheapest-first, or handed to the
        kernel with the two leaders."""
        if not _phase1_stop(tallies, unknown, self.n, self.objective):
            return (P1, mask, tallies, unknown)
        alpha, beta = _pick_leaders(tallies, unknown, self.n, self.objective)
        return self._enter_kernel(mask, tallies, unknown, alpha, beta)


class NaiveCheapest(TwoPhaseStrategy):
    """Inspect votes by increasing cost until the outcome is certain."""

    def __init__(self, instance: Instance, objective: str = "abs") -> None:
        if objective not in CERTIFICATES:
            raise ValueError(f"objective must be 'abs' or 'rel', got {objective!r}")
        self.objective = objective
        self.name = f"naive_{objective}"
        super().__init__(instance)

    def _settle_p1(self, mask, tallies, unknown):
        """Phase 1 never hands over."""
        return (P1, mask, tallies, unknown)


class Abs4(TwoPhaseStrategy):
    """Adaptive absolute-majority strategy, 4-approximate.

    Phase 1 tests cheapest-first while more than two candidates can still
    reach a majority.  Then the SBB rule picks the votes that verify the
    front-runner alpha (KERNEL_A) until alpha is refuted, and after that
    the runner-up beta (KERNEL_B).  A verified target holds a majority, and
    a refuted beta leaves no candidate able to reach one, so the run ends
    on the certificate check in advance.  On a two-candidate election
    Phase 1 is empty and this is exactly the SBB strategy.
    """

    name = "abs4"
    objective = "abs"

    def _enter_kernel(self, mask, tallies, unknown, alpha, beta):
        return self._settle_kernel(KERNEL_A, mask, tallies, unknown, alpha, beta)

    def _settle_kernel(self, tag, mask, tallies, unknown, alpha, beta):
        """Verify alpha until it is refuted, then beta."""
        if tag == KERNEL_A and self._sbb_needs(tallies, unknown, alpha)[1] <= 0:
            tag = KERNEL_B
        return (tag, mask, tallies, unknown, alpha, beta)

    def _sbb_needs(self, tallies, unknown, target: int) -> tuple[int, int]:
        """Remaining (k, z) of the "target wins an absolute majority" question."""
        k = self.maj - tallies[target - 1]
        z = self.blk - (self.n - unknown - tallies[target - 1])
        return k, z

    def _kernel_test(self, state) -> int:
        target = state[4] if state[0] == KERNEL_A else state[5]
        k, z = self._sbb_needs(state[2], state[3], target)
        return _sbb_pick(k, z, self._support(target), self._refute(target),
                         state[1])

    def _kernel_advance(self, state, mask, tallies, unknown, value):
        return self._settle_kernel(state[0], mask, tallies, unknown,
                                   state[4], state[5])


class Abs6ThreeRound(Abs4):
    """Absolute majority in three rounds of adaptivity, 6-approximate.

    Abs4 with each SBB run replaced by a walk along one pre-specified
    permutation (the cost-sensitive round-robin of the support and
    refutation orders of that round's target), so each round tests in a
    fixed order until Abs4's stopping rule for its target fires.  States
    are Abs4's plus (perm, pos): a round that Abs4 continues moves one step
    along perm, and a new round (alpha's, or beta's after alpha is refuted)
    starts at position 0 of the permutation for the voters then untested.

    The permutation reads only the untested set and the target, so each is
    built once and kept on the strategy, keyed by (mask, target); many
    kernel entries share one.
    """

    name = "abs6_threeround"

    def __init__(self, instance: Instance) -> None:
        super().__init__(instance)
        self._perms: dict = {}

    def _perm_for(self, mask: int, target: int) -> tuple[int, ...]:
        perm = self._perms.get((mask, target))
        if perm is None:
            perm = self._perms[(mask, target)] = tuple(
                kofn_permutation_for(self.instance, self._untested(mask), target))
        return perm

    def _enter_kernel(self, mask, tallies, unknown, alpha, beta):
        return self._walk(super()._enter_kernel(mask, tallies, unknown, alpha, beta))

    def _kernel_test(self, state) -> int:
        return state[6][state[7]]

    def _kernel_advance(self, state, mask, tallies, unknown, value):
        return self._walk(super()._kernel_advance(state, mask, tallies, unknown,
                                                  value), state)

    def _walk(self, state, prev=None):
        """Abs4's state with the walk slots: one step on from prev while
        the round goes on, else a new walk for the round's target."""
        tag = state[0]
        if prev is not None and prev[0] == tag:
            return state + (prev[6], prev[7] + 1)
        target = state[4] if tag == KERNEL_A else state[5]
        return state + (self._perm_for(state[1], target), 0)


class Abs10TwoRound(TwoPhaseStrategy):
    """Absolute majority in two rounds of adaptivity, 10-approximate.

    After Phase 1, a single permutation interleaving the four support and
    refutation orders of the two remaining candidates is walked until a
    certificate appears.

    The permutation reads only the untested set and the two candidates, so
    each is built once and kept on the strategy, keyed by (mask, alpha,
    beta); many kernel entries share one.
    """

    name = "abs10_tworound"
    objective = "abs"

    def __init__(self, instance: Instance) -> None:
        super().__init__(instance)
        self._perms: dict = {}

    def _enter_kernel(self, mask, tallies, unknown, alpha, beta):
        perm = self._perms.get((mask, alpha, beta))
        if perm is None:
            perm = self._perms[(mask, alpha, beta)] = tuple(
                two_candidate_round_robin(self.instance, self._untested(mask),
                                          alpha, beta))
        return (KERNEL_A, mask, tallies, unknown, perm, 0)

    def _kernel_test(self, state) -> int:
        return state[4][state[5]]

    def _kernel_advance(self, state, mask, tallies, unknown, value):
        return (KERNEL_A, mask, tallies, unknown, state[4], state[5] + 1)


class Rel8(TwoPhaseStrategy):
    """Adaptive relative-majority strategy, 8-approximate.

    Phase 1 tests cheapest-first while more than two candidates can still
    finish on top.  With leaders alpha (largest tally) and beta fixed, the
    question "does alpha end strictly ahead of beta" is a threshold test
    over the untested votes, scored 2 / 1 / 0 for a vote for alpha / a third
    candidate / beta, and the dual-greedy cover engine picks the votes while
    it is open.  A yes is alpha's certificate, on which advance stops.  Once
    the answer is no, the remaining votes are tested in increasing
    c_i / (1 - p_{i,alpha}) (kernel B) until the certificate, for beta or a
    tie, appears.

    Kernel A states are (KERNEL_A, mask, tallies, unknown, alpha, beta,
    items, counts, theta, voter, charges): items are the voters untested
    when the kernel starts, counts = (c0, c1, c2) counts the revealed items
    scoring 0, 1 and 2 (the threshold goal reads scores only through these
    counts, so hi = c1 + 2*c2 and lo = 2*c0 + c1), and voter and charges are
    the dual greedy's choice in this state and the per-item charges after
    the raise that chose it.  The goal is built once per (theta, len(items))
    and the item costs and score probabilities once per (items, alpha,
    beta), on the strategy.  Kernel B states are (KERNEL_B, mask, tallies,
    unknown, alpha, beta).

    Many edges lead into one kernel A state, so each settled state is kept
    on the strategy, keyed by everything its selection reads: the slots up
    to theta and the charges it was reached with.  The dual greedy selects
    once per distinct key.
    """

    name = "rel8"
    objective = "rel"

    def __init__(self, instance: Instance) -> None:
        super().__init__(instance)
        self._goals: dict = {}
        self._inputs: dict = {}
        self._selected: dict = {}

    def _enter_kernel(self, mask, tallies, unknown, alpha, beta):
        tested = self.n - unknown
        theta = (self.n + 1) - tallies[alpha - 1] - (tested - tallies[beta - 1])
        items = tuple(self._untested(mask))
        m = len(items)
        if not 1 <= theta <= 2 * m:
            raise AssertionError("undecided threshold question out of range")
        return self._settle_adg(mask, tallies, unknown, alpha, beta, items,
                                (0, 0, 0), theta, (0.0,) * m)

    def _score(self, value: int, alpha: int, beta: int) -> int:
        if value == alpha:
            return 2
        if value == beta:
            return 0
        return 1

    def _goal(self, theta: int, m: int):
        goal = self._goals.get((theta, m))
        if goal is None:
            goal = self._goals[(theta, m)] = ternary_threshold_goal(theta, m)
        return goal

    def _item_inputs(self, items, alpha, beta):
        """Per-item costs and {2, 0, 1} score probabilities of the kernel."""
        key = (items, alpha, beta)
        inputs = self._inputs.get(key)
        if inputs is None:
            probs = []
            for v in items:
                row = self.instance.probs[v]
                pa = row[alpha - 1]
                pb = row[beta - 1]
                probs.append({2: pa, 0: pb, 1: max(0.0, 1.0 - pa - pb)})
            inputs = self._inputs[key] = (
                [self.instance.costs[v] for v in items], probs)
        return inputs

    def _settle_adg(self, mask, tallies, unknown, alpha, beta, items, counts,
                    theta, charges):
        """Move to kernel B once the threshold question is answered no, or
        settle on this state's one dual-greedy selection, made on the first
        visit."""
        m = len(items)
        c0, c1, _ = counts
        if 2 * c0 + c1 >= 2 * m - theta + 1:
            return (KERNEL_B, mask, tallies, unknown, alpha, beta)
        pre = (KERNEL_A, mask, tallies, unknown, alpha, beta, items, counts,
               theta)
        key = pre + (charges,)
        state = self._selected.get(key)
        if state is None:
            costs, probs = self._item_inputs(items, alpha, beta)
            untested = [i for i, v in enumerate(items) if mask >> v & 1]
            star, raised = _adg_step(self._goal(theta, m), costs, probs,
                                     untested, enumerate(counts), charges)
            state = self._selected[key] = pre + (items[star], raised)
        return state

    def _kernel_test(self, state) -> int:
        if state[0] == KERNEL_A:
            return state[9]
        return _first_untested(self._refute(state[4]), state[1])

    def _kernel_advance(self, state, mask, tallies, unknown, value):
        if state[0] == KERNEL_B:
            return (KERNEL_B, mask, tallies, unknown, state[4], state[5])
        alpha, beta = state[4], state[5]
        counts = list(state[7])
        counts[self._score(value, alpha, beta)] += 1
        return self._settle_adg(mask, tallies, unknown, alpha, beta,
                                state[6], tuple(counts), state[8], state[10])


class AdgAbsMajority(TwoPhaseStrategy):
    """Dual-greedy cover over the composed absolute-majority goal.

    Kept as a comparison strategy: its expected cost is within 2d-1 of the
    optimum, which the headline strategies beat with constant factors.

    It has no Phase 1: every undecided state is a kernel state (KERNEL_A,
    mask, tallies, unknown, voter, charges), and the goal is met exactly
    when the certificate check in advance stops the run.  The composed goal reads votes
    only through per-candidate counts, which tallies already holds, and
    voter and charges are the dual greedy's choice in this state and the
    per-voter charges after the raise that chose it.  As in Rel8, each
    settled state is kept on the strategy, keyed by its first four slots
    and the charges it was reached with, so the dual greedy selects once
    per distinct key.
    """

    name = "adg_abs"
    objective = "abs"

    def __init__(self, instance: Instance) -> None:
        super().__init__(instance)
        self._goal = abs_majority_goal(instance)
        self._probs = [{j: row[j - 1] for j in range(1, self.d + 1)}
                       for row in instance.probs]
        self._selected: dict = {}

    def initial_state(self):
        return self._settle((1 << self.n) - 1, (0,) * self.d, self.n,
                            (0.0,) * self.n)

    def _settle(self, mask, tallies, unknown, charges):
        """Settle on this state's one dual-greedy selection, made on the
        first visit."""
        pre = (KERNEL_A, mask, tallies, unknown)
        key = pre + (charges,)
        state = self._selected.get(key)
        if state is None:
            star, raised = _adg_step(self._goal, self.instance.costs,
                                     self._probs, self._untested(mask),
                                     enumerate(tallies, 1), charges)
            state = self._selected[key] = pre + (star, raised)
        return state

    def _kernel_test(self, state) -> int:
        return state[4]

    def _kernel_advance(self, state, mask, tallies, unknown, value):
        return self._settle(mask, tallies, unknown, state[5])

    def phase_of(self, state) -> int:
        return 1


STRATEGIES = {
    "abs4": Abs4,
    "abs6_threeround": Abs6ThreeRound,
    "abs10_tworound": Abs10TwoRound,
    "rel8": Rel8,
    "naive_abs": lambda inst: NaiveCheapest(inst, "abs"),
    "naive_rel": lambda inst: NaiveCheapest(inst, "rel"),
    "adg_abs": AdgAbsMajority,
}


def make_strategy(name: str, instance: Instance) -> Strategy:
    try:
        factory = STRATEGIES[name]
    except KeyError:
        raise ValueError(f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)}")
    return factory(instance)


def run_strategy(strategy: Strategy, realization: Sequence[int]) -> Transcript:
    """Run a strategy against one realization and record the transcript."""
    _check_realization(strategy.instance, realization)
    costs = strategy.instance.costs
    state = strategy.initial_state()
    steps: list[TranscriptStep] = []
    phases: list[int] = []
    last_phase = None
    cum = 0.0
    while True:
        voter = strategy.next_test(state)
        if voter is None:
            break
        phase = strategy.phase_of(state)
        if phase != last_phase:
            phases.append(len(steps))
            last_phase = phase
        value = realization[voter]
        cum += costs[voter]
        steps.append(TranscriptStep(voter, value, cum))
        state = strategy.advance(state, voter, value)
    return Transcript(algo=strategy.name, steps=tuple(steps), phases=tuple(phases),
                      result=strategy.result(state))


def abs4(instance: Instance, realization: Sequence[int]) -> Transcript:
    return run_strategy(Abs4(instance), realization)


def abs6_threeround(instance: Instance, realization: Sequence[int]) -> Transcript:
    return run_strategy(Abs6ThreeRound(instance), realization)


def abs10_tworound(instance: Instance, realization: Sequence[int]) -> Transcript:
    return run_strategy(Abs10TwoRound(instance), realization)


def rel8(instance: Instance, realization: Sequence[int]) -> Transcript:
    return run_strategy(Rel8(instance), realization)


def naive_cheapest(instance: Instance, realization: Sequence[int],
                   objective: str) -> Transcript:
    return run_strategy(NaiveCheapest(instance, objective), realization)


def phase1_trace(instance: Instance, realization: Sequence[int], objective: str,
                 ) -> list[PartialAssignment]:
    """Snapshots of every Phase 1 state, from the empty assignment to the last.

    Steps abs4 (objective "abs") or rel8 ("rel") on the realization while
    it stays in Phase 1, so the snapshots are the initial state and every
    state TwoPhaseStrategy.advance reaches from a Phase 1 state, as partial
    assignments; the last one ends Phase 1, on a certificate or a hand-over
    to the kernel.
    """
    if objective not in CERTIFICATES:
        raise ValueError(f"objective must be 'abs' or 'rel', got {objective!r}")
    _check_realization(instance, realization)
    strategy = Abs4(instance) if objective == "abs" else Rel8(instance)
    b = PartialAssignment.empty(instance.n, instance.d)
    out = [b.copy()]
    state = strategy.initial_state()
    while state[0] == P1:
        voter = strategy.next_test(state)
        b.reveal(voter, realization[voter])
        out.append(b.copy())
        state = strategy.advance(state, voter, realization[voter])
    return out
