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

A P1 state has tested exactly the n - unknown cheapest voters, so it
tests _cost_order[n - unknown].

Whatever a strategy builds once per input and reuses lives in one dict on
the strategy, read through Strategy._memo(key, build), which calls build()
the first time key is asked for.  key[0] names the table, so no two tables
collide, and the rest of the key is exactly what the build reads, so a
decision is made once however many states share its input:

    ("orders", c)              candidate c's c/p and c/(1-p) orders
    ("prefixes", c)            abs4: prefix_masks of those two orders
    ("sbb", mask, target, k)   abs4: the SBB pick (z follows from k and mask)
    ("kofn", mask, target)     abs6_threeround: a round's permutation
    ("round_robin", mask, alpha, beta)
                               abs10_tworound: the walk's permutation
    ("goal", theta, m)         rel8: the threshold goal over m items
    ("inputs", items, alpha, beta)
                               rel8: the items' costs and score probabilities
    ("adg", key, charges)      a dual-greedy selection, the chosen voter and
                               raised charges; key is _adg_key(state): rel8's
                               (mask, alpha, beta, items, counts, theta),
                               adg_abs's (mask, tallies)

The builds name the kernels, order sorts and goal factories of this module
at call time, where perfbench's tracer replaces them.  The dual-greedy
settle is written once, Strategy._settle_adg, for rel8's kernel A and
adg_abs: it selects once per ("adg", key, charges), passing adg_select just
the revealed values (the goals are symmetric), and appends the chosen voter
and the raised charges to the state.

The class attribute walks declares which states run along an order fixed
in advance, so that the evaluators can walk them without stepping the
strategy: oracle.monte_carlo_cost for every trial at once as arrays, and
oracle.exact_strategy_cost one depth at a time.  It maps each walked state
tag to the rule on which such a state leaves its order besides the
certificate: CERTIFICATE_ONLY (none), PHASE1_STOP
(core.phase1_stop_from_tallies) or TARGET_REFUTED (the candidate
_target(state) names is refuted, Abs4's z <= 0).  A walked P1 state tests
_cost_order[n - unknown], the plain cheapest-first Phase 1, and settles
through _settle_p1 (naive_abs/_rel declare {P1: CERTIFICATE_ONLY}, abs4
and rel8 {P1: PHASE1_STOP}).  Any other walked state ends with (perm,
pos), tests perm[pos], and perm lists every untested voter once from pos
on; until the certificate or the rule holds, advance keeps the walk
going, changing only the first four slots and moving pos one on, and on
the rule it hands over to the next round's state (abs6_threeround's
and abs10_tworound's rounds).  A tag the map leaves out is stepped
through next_test.  A declaration also vouches that advance is
TwoPhaseStrategy's: the reveal, the certificate, then _settle_p1 for a P1
state and _kernel_advance for any other.  So exact evaluation settles
every child of a declared class itself through those hooks and never
calls advance, while Monte Carlo steps an unwalked tag through advance.
Every state of a strategy that declares nothing (adg_abs,
oracle.OptimalStrategy) is stepped through next_test and advance.
walks_of reads the declaration of the strategy's own class only: it
vouches for that class's next_test, advance and result, which a subclass
may override, so an undeclared subclass gets {}.  It is a declared value
rather than a type or method test because perfbench's tracer replaces
next_test and advance on the classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (CERTIFICATES, Instance, _check_objective,
                   blocking_threshold, majority_threshold,
                   phase1_stop_from_tallies)
from .dualgreedy import adg_raise, adg_select
from .goals import abs_majority_goal, ternary_threshold_goal
from .kernels import (_sbb_pick, kofn_permutation_for, prefix_masks,
                      refutation_order, support_order, two_candidate_round_robin)

# State tags.
P1, KERNEL_A, KERNEL_B, DONE = 0, 1, 2, 3

_PHASE_LABEL = {P1: 1, KERNEL_A: 2, KERNEL_B: 3}

# Rules of a strategy class's walks (see the module docstring).
CERTIFICATE_ONLY, PHASE1_STOP, TARGET_REFUTED = 0, 1, 2


def walks_of(strategy) -> dict:
    """The walks the strategy's own class declares, else {}."""
    return vars(type(strategy)).get("walks", {})


def _check_realization(instance: Instance, realization: Sequence[int]) -> None:
    if len(realization) != instance.n:
        raise ValueError(f"realization must list {instance.n} votes")
    for i, v in enumerate(realization):
        if not 1 <= v <= instance.d:
            raise ValueError(f"realization[{i}]: vote {v!r} outside 1..{instance.d}")


def _pick_leaders(tallies: Sequence[int], unknown: int, n: int,
                  objective: str) -> tuple[int, int]:
    """The two candidates the second phase will examine, ties by index.

    abs: the two smallest capped votes-against counts (the best-supported
    candidates).  rel: the two largest tallies.
    """
    if objective == "abs":
        tested, blk = n - unknown, blocking_threshold(n)
        key = [min(tested - t, blk) for t in tallies]
        ranked = sorted(range(len(tallies)), key=key.__getitem__)
    else:
        # A reversed sort stays stable, so equal tallies keep index order.
        ranked = sorted(range(len(tallies)), key=tallies.__getitem__, reverse=True)
    return ranked[0] + 1, ranked[1] + 1


def _first_untested(order: Sequence[int], mask: int) -> int:
    """The first voter of order still untested in mask."""
    for v in order:
        if mask >> v & 1:
            return v
    raise AssertionError("no untested voter left")


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
    the per-instance memo and the dual-greedy settle."""

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
        self._tables: dict = {}

    # Protocol: initial_state() -> state, next_test(state) -> voter | None,
    # advance(state, voter, value) -> state, result(state) -> outcome.

    def result(self, state) -> int:
        if state[0] != DONE:
            raise ValueError("strategy has not finished")
        return state[4]

    def phase_of(self, state) -> int:
        return _PHASE_LABEL.get(state[0], 0)

    def _memo(self, key: tuple, build):
        """The strategy's table entry for key, which build() makes the
        first time key is asked for.  key[0] names the table."""
        value = self._tables.get(key)
        if value is None:
            value = self._tables[key] = build()
        return value

    def _orders(self, candidate: int) -> tuple[list[int], list[int]]:
        """The candidate's c/p and c/(1-p) orders, sorted once."""
        return self._memo(("orders", candidate), lambda: (
            support_order(self.instance, candidate),
            refutation_order(self.instance, candidate)))

    def _prefixes(self, candidate: int) -> tuple[list[int], ...]:
        """prefix_masks of the candidate's c/p and c/(1-p) orders."""
        return self._memo(("prefixes", candidate), lambda: tuple(
            map(prefix_masks, self._orders(candidate))))

    def _untested(self, mask: int) -> list[int]:
        """The untested voters of mask, in increasing index."""
        return [v for v in range(self.n) if mask >> v & 1]

    def _settle_adg(self, pre: tuple, charges: tuple[float, ...]):
        """pre + (voter, raised): the dual greedy's one selection in the
        kernel state pre reached with charges.

        The selection reads only key = _adg_key(pre), whose first slot is
        the untested mask, and the charges, so it is made once per
        distinct (key, charges).  _adg_inputs(key) gives the goal, the
        per-item costs and value probabilities, the items (voter of each
        item index) and the revealed (value, count) pairs; charges and
        raised are per item.
        """
        key = self._adg_key(pre)

        def select():
            goal, costs, probs, items, counts = self._adg_inputs(key)
            untested = [i for i, v in enumerate(items) if key[0] >> v & 1]
            revealed = [v for v, c in counts for _ in range(c)]
            charged = dict(enumerate(charges))
            star, rate, weights = adg_select(goal, costs, probs, revealed,
                                             charged, untested)
            return items[star], tuple(adg_raise(charged, rate, weights).values())
        return pre + self._memo(("adg", key, charges), select)

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
            return self._cost_order[self.n - state[3]]
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
        if not phase1_stop_from_tallies(tallies, unknown, self.n, self.objective):
            return (P1, mask, tallies, unknown)
        alpha, beta = _pick_leaders(tallies, unknown, self.n, self.objective)
        return self._enter_kernel(mask, tallies, unknown, alpha, beta)


class NaiveCheapest(TwoPhaseStrategy):
    """Inspect votes by increasing cost until the outcome is certain."""

    walks = {P1: CERTIFICATE_ONLY}

    def __init__(self, instance: Instance, objective: str = "abs") -> None:
        _check_objective(objective)
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
    walks = {P1: PHASE1_STOP}

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

    def _target(self, state) -> int:
        """The candidate the kernel state verifies: alpha, then beta."""
        return state[4] if state[0] == KERNEL_A else state[5]

    def _kernel_test(self, state) -> int:
        """The SBB pick, made once per (mask, target, k): z follows from
        k and the mask's popcount."""
        target = self._target(state)
        mask = state[1]
        k, z = self._sbb_needs(state[2], state[3], target)
        return self._memo(("sbb", mask, target, k),
                          lambda: _sbb_pick(k, z, *self._prefixes(target), mask))

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

    The permutation reads only the untested set and the target's two
    orders, so each is built once and memoized, keyed by (mask, target);
    many kernel entries share one.
    """

    name = "abs6_threeround"
    walks = {P1: PHASE1_STOP, KERNEL_A: TARGET_REFUTED, KERNEL_B: TARGET_REFUTED}

    def _perm_for(self, mask: int, target: int) -> tuple[int, ...]:
        return self._memo(("kofn", mask, target), lambda: tuple(
            kofn_permutation_for(self.instance.costs, mask, self._orders(target))))

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
        if prev is not None and prev[0] == state[0]:
            return state + (prev[6], prev[7] + 1)
        return state + (self._perm_for(state[1], self._target(state)), 0)


class Abs10TwoRound(TwoPhaseStrategy):
    """Absolute majority in two rounds of adaptivity, 10-approximate.

    After Phase 1, a single permutation interleaving the four support and
    refutation orders of the two remaining candidates is walked until a
    certificate appears.

    The permutation reads only the untested set and the two candidates'
    orders, so each is built once and memoized, keyed by (mask, alpha,
    beta); many kernel entries share one.
    """

    name = "abs10_tworound"
    objective = "abs"
    walks = {P1: PHASE1_STOP, KERNEL_A: CERTIFICATE_ONLY}

    def _enter_kernel(self, mask, tallies, unknown, alpha, beta):
        perm = self._memo(("round_robin", mask, alpha, beta), lambda: tuple(
            two_candidate_round_robin(self.instance.costs, mask, self._orders(alpha),
                                      self._orders(beta))))
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
    the raise that chose it.  Kernel B states are (KERNEL_B, mask, tallies,
    unknown, alpha, beta).

    Three memo tables serve kernel A, each keyed on what it reads: the goal
    ("goal", theta, len(items)), the item costs and score probabilities
    ("inputs", items, alpha, beta), and the selection ("adg", (mask, alpha,
    beta, items, counts, theta), charges).  A selection reads neither the
    tallies nor the unknown count, so states that differ only there share
    one.
    """

    name = "rel8"
    objective = "rel"
    walks = {P1: PHASE1_STOP}

    def _enter_kernel(self, mask, tallies, unknown, alpha, beta):
        tested = self.n - unknown
        theta = (self.n + 1) - tallies[alpha - 1] - (tested - tallies[beta - 1])
        items = tuple(self._untested(mask))
        m = len(items)
        if not 1 <= theta <= 2 * m:
            raise AssertionError("undecided threshold question out of range")
        return self._settle_kernel(mask, tallies, unknown, alpha, beta, items,
                                   (0, 0, 0), theta, (0.0,) * m)

    def _score(self, value: int, alpha: int, beta: int) -> int:
        if value == alpha:
            return 2
        if value == beta:
            return 0
        return 1

    def _item_inputs(self, items, alpha, beta):
        """Per-item costs and {2, 0, 1} score probabilities of the kernel."""
        probs = []
        for v in items:
            row = self.instance.probs[v]
            pa = row[alpha - 1]
            pb = row[beta - 1]
            probs.append({2: pa, 0: pb, 1: max(0.0, 1.0 - pa - pb)})
        return [self.instance.costs[v] for v in items], probs

    def _adg_key(self, pre):
        """(mask, alpha, beta, items, counts, theta): what a selection reads."""
        return (pre[1],) + pre[4:]

    def _adg_inputs(self, key):
        _, alpha, beta, items, counts, theta = key
        goal = self._memo(("goal", theta, len(items)),
                          lambda: ternary_threshold_goal(theta, len(items)))
        costs, probs = self._memo(("inputs", items, alpha, beta),
                                  lambda: self._item_inputs(items, alpha, beta))
        return goal, costs, probs, items, enumerate(counts)

    def _settle_kernel(self, mask, tallies, unknown, alpha, beta, items, counts,
                       theta, charges):
        """Move to kernel B once the threshold question is answered no,
        else settle on this state's dual-greedy selection."""
        c0, c1, _ = counts
        if 2 * c0 + c1 >= 2 * len(items) - theta + 1:
            return (KERNEL_B, mask, tallies, unknown, alpha, beta)
        return self._settle_adg((KERNEL_A, mask, tallies, unknown, alpha, beta,
                                 items, counts, theta), charges)

    def _kernel_test(self, state) -> int:
        if state[0] == KERNEL_A:
            return state[9]
        return _first_untested(self._orders(state[4])[1], state[1])

    def _kernel_advance(self, state, mask, tallies, unknown, value):
        if state[0] == KERNEL_B:
            return (KERNEL_B, mask, tallies, unknown, state[4], state[5])
        alpha, beta = state[4], state[5]
        counts = list(state[7])
        counts[self._score(value, alpha, beta)] += 1
        return self._settle_kernel(mask, tallies, unknown, alpha, beta,
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
    per-voter charges after the raise that chose it.  _settle_adg selects
    once per (mask, tallies) and charges.  The goal
    is built at construction, so an instance too large for it fails there.
    """

    name = "adg_abs"
    objective = "abs"

    def __init__(self, instance: Instance) -> None:
        super().__init__(instance)
        self._goal = abs_majority_goal(instance)
        self._probs = [{j: row[j - 1] for j in range(1, self.d + 1)}
                       for row in instance.probs]

    def initial_state(self):
        return self._settle_adg((KERNEL_A, (1 << self.n) - 1, (0,) * self.d,
                                 self.n), (0.0,) * self.n)

    def _adg_key(self, pre):
        """(mask, tallies): what a selection reads."""
        return pre[1:3]

    def _adg_inputs(self, key):
        return (self._goal, self.instance.costs, self._probs, range(self.n),
                enumerate(key[1], 1))

    def _kernel_test(self, state) -> int:
        return state[4]

    def _kernel_advance(self, state, mask, tallies, unknown, value):
        return self._settle_adg((KERNEL_A, mask, tallies, unknown), state[5])

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
