import hashlib
import math
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (brute_optimal, evaluated_states, every_strategy,
                      kofn_optimal, make_instance, random_instance,
                      sweep_cost, uniform_instance)
from quickcount import oracle as oracle_module
from quickcount import strategies
from quickcount.bench import GeneratorSpec, generate
from quickcount.core import CERTIFICATES
from quickcount.kernels import refutation_order, support_order
from quickcount.oracle import (DEFAULT_MAX_STATES, BudgetExceededError,
                               EvaluationBudgetError, OptimalStrategy,
                               StrategyError, _distinct, _Oracle,
                               estimate_belief_states, evaluate_strategy,
                               exact_strategy_cost, monte_carlo_cost,
                               optimal_expected_cost, sample_realizations)
from quickcount.strategies import (DONE, KERNEL_A, KERNEL_B, P1, PHASE1_STOP,
                                   STRATEGIES, TARGET_REFUTED, Abs6ThreeRound,
                                   Abs10TwoRound, NaiveCheapest, make_strategy,
                                   run_strategy, walks_of)


def test_single_voter_rel_costs_its_inspection():
    inst = make_instance([2.5], [(0.4, 0.6)])
    assert optimal_expected_cost(inst, "rel") == 2.5


def test_two_voters_abs_needs_both():
    inst = make_instance([1.0, 1.0], [(0.3, 0.7), (0.8, 0.2)])
    assert optimal_expected_cost(inst, "abs") == 2.0


def test_three_fair_unit_votes_cost_two_and_a_half():
    # First test always pays 1, second settles with prob 1/2, else a third.
    inst = uniform_instance(3, 2)
    assert optimal_expected_cost(inst, "abs") == pytest.approx(2.5, abs=1e-12)
    assert brute_optimal(inst, "abs") == pytest.approx(2.5, abs=1e-12)


@pytest.mark.parametrize("objective", ["abs", "rel"])
@pytest.mark.parametrize("n,d,seed", [(3, 2, 1), (4, 2, 2), (5, 2, 3),
                                      (4, 3, 4), (5, 3, 5)])
def test_dp_matches_raw_partial_assignment_recursion(n, d, seed, objective):
    # brute_optimal recurses over raw partial assignments with no tally
    # collapsing and no memo, so agreement also vouches for the belief key.
    inst = random_instance(n, d, seed)
    assert optimal_expected_cost(inst, objective) == pytest.approx(
        brute_optimal(inst, objective), abs=1e-9)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_exact_cost_equals_realization_sweep(name):
    inst = random_instance(4, 3, 77)
    strat = make_strategy(name, inst)
    exact = exact_strategy_cost(strat)
    swept = sweep_cost(lambda x: run_strategy(strat, x), inst)
    assert exact == pytest.approx(swept, abs=1e-9)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_dp_lower_bounds_every_strategy(name):
    for seed in (5, 6):
        inst = random_instance(5, 3, seed)
        strat = make_strategy(name, inst)
        opt = optimal_expected_cost(inst, strat.objective)
        assert exact_strategy_cost(strat) >= opt - 1e-9


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_sbb_full_evaluation_is_optimal_for_two_candidates(n):
    for seed in range(3):
        inst = random_instance(n, 2, seed * 31 + n)
        strat = make_strategy("abs4", inst)
        assert exact_strategy_cost(strat) == pytest.approx(
            optimal_expected_cost(inst, "abs"), abs=1e-9)


@pytest.mark.parametrize("epsilon", [0.1, 0.01, 0.001])
@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_grouped_kofn_referee_matches_oracle_on_adversarial_family(n, epsilon):
    # The adversarial family has three classes of interchangeable voters, so
    # kofn_optimal runs on merged counts there; the belief-state DP and the
    # exact cost of abs4 (the SBB strategy) must both agree with it.
    inst = generate(GeneratorSpec(kind="adversarial", n=n, d=2, epsilon=epsilon))
    grouped = kofn_optimal(inst.costs, [row[0] for row in inst.probs],
                           k=n // 2 + 1)
    assert grouped == pytest.approx(optimal_expected_cost(inst, "abs"), abs=1e-9)
    assert grouped == pytest.approx(
        exact_strategy_cost(make_strategy("abs4", inst)), abs=1e-9)


def test_optimal_strategy_realizes_the_dp_value():
    for objective in ("abs", "rel"):
        inst = random_instance(5, 3, 123)
        strat = OptimalStrategy(inst, objective)
        assert exact_strategy_cost(strat) == pytest.approx(
            optimal_expected_cost(inst, objective), abs=1e-9)


def test_single_fixed_test_strategy_cost():
    inst = make_instance([3.25], [(0.5, 0.5)])
    strat = make_strategy("naive_abs", inst)
    assert exact_strategy_cost(strat) == 3.25


class _StopsEarly(NaiveCheapest):
    def next_test(self, state):
        return None


class _Retests(NaiveCheapest):
    def next_test(self, state):
        return 0


class _ReportsWrongWinner(NaiveCheapest):
    def result(self, state):
        return 3 - super().result(state)


@pytest.mark.parametrize("evaluate", [
    exact_strategy_cost,
    lambda strategy: monte_carlo_cost(strategy, 50, seed=0),
], ids=["exact", "monte-carlo"])
def test_exact_cost_rejects_protocol_violations(evaluate):
    inst = uniform_instance(3, 2)
    with pytest.raises(StrategyError, match="stopped without a certificate"):
        evaluate(_StopsEarly(inst))
    with pytest.raises(StrategyError, match="retested"):
        evaluate(_Retests(inst))
    with pytest.raises(StrategyError, match="certificate says"):
        evaluate(_ReportsWrongWinner(inst))


class _RoundRetests(Abs10TwoRound):
    """Declares walks as Abs10TwoRound does, but each walk starts with the
    lowest voter Phase 1 has tested."""

    walks = Abs10TwoRound.walks

    def _enter_kernel(self, mask, tallies, unknown, alpha, beta):
        state = super()._enter_kernel(mask, tallies, unknown, alpha, beta)
        tested = min(v for v in range(self.n) if not mask >> v & 1)
        return state[:4] + ((tested,) + state[4],) + state[5:]


@pytest.mark.parametrize("evaluate", [
    exact_strategy_cost,
    lambda strategy: monte_carlo_cost(strategy, 50, seed=0),
], ids=["exact", "monte-carlo"])
def test_a_round_that_lists_a_tested_voter_is_a_retest(evaluate):
    # At d = 4 Phase 1 tests at least one voter, so every walk retests.
    # Monte Carlo walks the declared rounds as arrays and checks each
    # round's order before walking it.
    with pytest.raises(StrategyError, match="retested"):
        evaluate(_RoundRetests(random_instance(30, 4, 31)))


class _RoundDropsLast(Abs10TwoRound):
    """Declares walks as Abs10TwoRound does, but each walk's order leaves
    out its last voter."""

    walks = Abs10TwoRound.walks

    def _enter_kernel(self, mask, tallies, unknown, alpha, beta):
        state = super()._enter_kernel(mask, tallies, unknown, alpha, beta)
        return state[:4] + (state[4][:-1],) + state[5:]


@pytest.mark.parametrize("evaluate", [
    exact_strategy_cost,
    lambda strategy: monte_carlo_cost(strategy, 50, seed=0),
], ids=["exact", "monte-carlo"])
def test_a_round_that_leaves_a_voter_untested_is_an_error(evaluate):
    # Five fair votes: the round starts at once, and two votes each for
    # both candidates after the four voters it lists leave the outcome open.
    with pytest.raises(StrategyError, match="leaves voters untested"):
        evaluate(_RoundDropsLast(uniform_instance(5, 2)))


def _undeclared_twin(name, instance):
    """The named strategy as an instance of a subclass that declares no
    walks, so that exact evaluation steps it through next_test and advance
    throughout."""
    strategy = make_strategy(name, instance)
    cls = type(strategy)
    twin = type(f"Undeclared{cls.__name__}", (cls,), {})
    return twin(instance, strategy.objective) if cls is NaiveCheapest else twin(instance)


_WALKED = ["abs4", "abs6_threeround", "abs10_tworound", "rel8", "naive_abs", "naive_rel"]


@pytest.mark.parametrize("name", _WALKED)
def test_walked_states_cost_what_stepping_them_costs(name):
    # The evaluator walks a declared Phase 1 and declared rounds itself,
    # and settles every child of a declared class itself, through the
    # certificate and the hooks advance calls; stepping every state
    # through next_test and advance must give the same cost to the bit.
    # At d = 5 three or more candidates are often out of contention, so
    # many kernel children are decided.
    instances = [random_instance(n, d, seed) for n in range(3, 9)
                 for d in (2, 3, 4) for seed in (1, 2, 3)]
    instances += [random_instance(n, 5, seed) for n in range(6, 10) for seed in (1, 2)]
    instances.append(_adversarial(21))
    for inst in instances:
        twin = _undeclared_twin(name, inst)
        assert walks_of(twin) == {}
        assert (exact_strategy_cost(make_strategy(name, inst)).hex()
                == exact_strategy_cost(twin).hex()), (name, inst.n, inst.d)


@pytest.mark.parametrize("name", _WALKED)
def test_a_declared_class_is_never_advanced_and_holds_no_stopping_state(name):
    # Exact evaluation settles a declared class's children itself: a
    # decided child is worth 0.0 with no frontier slot, and an undecided
    # one comes from _settle_p1 or _kernel_advance.  The states it holds,
    # the initial state and the children those hooks return, are all
    # undecided, and advance is never called.
    instances = [random_instance(n, d, seed) for n, d, seed in ((5, 3, 1), (6, 2, 2),
                                                                (6, 3, 3))]
    instances.append(_adversarial(21))
    for inst in instances:
        strat = make_strategy(name, inst)
        cert = CERTIFICATES[strat.objective]
        held, advanced = [strat.initial_state()], []

        def recording(hook):
            def recorded(*args):
                held.append(hook(*args))
                return held[-1]
            return recorded

        def counted_advance(state, voter, value, advance=strat.advance):
            advanced.append(state)
            return advance(state, voter, value)

        for hook in ("_settle_p1", "_kernel_advance"):
            if hasattr(strat, hook):
                setattr(strat, hook, recording(getattr(strat, hook)))
        strat.advance = counted_advance
        exact_strategy_cost(strat)
        assert advanced == [], (inst.n, inst.d)
        assert all(state[0] != DONE and cert(state[2], state[3], inst.n) is None
                   for state in held), (inst.n, inst.d)


class _Abs6WalksAlphaOnly(Abs6ThreeRound):
    """abs6_threeround with only Phase 1 and alpha's round declared walked,
    so that beta's round (KERNEL_B) is stepped."""

    walks = {P1: PHASE1_STOP, KERNEL_A: TARGET_REFUTED}


def test_walks_are_declared_per_tag(monkeypatch):
    # Trials leave the walks for a stepped KERNEL_B state where Phase 1 or
    # alpha's round ends, so they enter the stepped kernel at mixed depths.
    # Walked or stepped, the cost is the same to the bit, and Monte Carlo
    # asks next_test only on the stepped tag and on the stops.
    instances = [random_instance(n, d, seed) for n in range(3, 9)
                 for d in (2, 3, 4) for seed in (1, 2, 3)]
    instances.append(_adversarial(21))
    for inst in instances:
        assert (exact_strategy_cost(_Abs6WalksAlphaOnly(inst)).hex()
                == exact_strategy_cost(_undeclared_twin("abs6_threeround", inst)).hex()
                == exact_strategy_cost(Abs6ThreeRound(inst)).hex()), (inst.n, inst.d)
    walk_kernels = oracle_module._walk_kernels
    depths = set()

    def recorded(strategy, batch, cum, entries, entry_of):
        depths.update(strategy.n - state[3] for state in entries)
        return walk_kernels(strategy, batch, cum, entries, entry_of)

    monkeypatch.setattr(oracle_module, "_walk_kernels", recorded)
    for inst in (random_instance(30, 4, 31), random_instance(8, 3, 31), _adversarial(33)):
        strat = _Abs6WalksAlphaOnly(inst)
        _assert_equals_plain_simulation(strat, 400, 3)
        asked = []
        next_test = strat.next_test

        def counted(state):
            asked.append(state)
            return next_test(state)

        strat.next_test = counted
        depths.clear()
        monte_carlo_cost(strat, 400, 3)
        # Entries come by ascending depth, so each stepped state is asked once.
        tags = {state[0] for state in asked}
        assert tags - {DONE} <= {KERNEL_B} and len(asked) == len(set(asked)), inst.n
        # At odd n and d = 2 alpha's refutation is beta's majority, so the
        # adversarial trials never reach beta's round.
        if inst.d > 2:
            assert KERNEL_B in tags and len(depths) > 1, inst.n


class _BackwardsAbs10(Abs10TwoRound):
    """Walks each permutation from its end.  It declares no walks, so it
    promises none and is stepped through next_test and advance."""

    def _kernel_test(self, state) -> int:
        return state[4][len(state[4]) - 1 - state[5]]


def test_an_undeclared_round_subclass_takes_the_checked_walk():
    # Walked as arrays, the rounds would follow Abs10TwoRound's order and
    # miss the override.
    inst = random_instance(30, 4, 31)
    strat = _BackwardsAbs10(inst)
    asked = []
    next_test = strat.next_test

    def counted(state):
        asked.append(state)
        return next_test(state)

    strat.next_test = counted
    _assert_equals_plain_simulation(strat, 200, 4)
    assert any(state[0] == KERNEL_A for state in asked)
    assert (monte_carlo_cost(strat, 200, 4)
            != monte_carlo_cost(Abs10TwoRound(inst), 200, 4))


def test_exact_cost_stops_past_its_state_budget(monkeypatch):
    # The budget counts distinct states as they enter a frontier: the
    # initial state, then each new undecided child the moment the walk
    # makes it (_settle_p1 on abs4's walked Phase 1, _kernel_advance on
    # its stepped kernel).  It admits a strategy with exactly that many and
    # stops one with more on the one past it, which is never asked its
    # test.  Counting at discovery stops the walk before it expands the
    # rest of a depth whose children are already past the budget.
    inst = random_instance(6, 3, 3)
    held, _ = evaluated_states(make_strategy("abs4", inst))
    distinct = len(held)
    assert distinct == 80
    monkeypatch.setattr(oracle_module, "EXACT_MAX_STATES", distinct)
    exact_strategy_cost(make_strategy("abs4", inst))
    monkeypatch.setattr(oracle_module, "EXACT_MAX_STATES", distinct - 1)
    strat = make_strategy("abs4", inst)
    asked, reached, calls = set(), set(), []
    next_test, kernel, settle = strat.next_test, strat._kernel_advance, strat._settle_p1

    def counted_next_test(state):
        asked.add(state)
        calls.append(state)
        return next_test(state)

    def made(child):
        reached.add(child)
        calls.append(child)
        return child

    strat.next_test = counted_next_test
    strat._kernel_advance = lambda state, *slots: made(kernel(state, *slots))
    strat._settle_p1 = lambda mask, tallies, unknown: made(settle(mask, tallies, unknown))
    with pytest.raises(EvaluationBudgetError,
                       match=f"more than {distinct - 1} distinct strategy states"):
        exact_strategy_cost(strat)
    last = calls[-1]
    assert len(reached) == distinct and last not in asked
    assert len(asked) == 35


def test_distinct_columns_match_numpy_unique():
    # The kernel entries and the round hand-overs are grouped by sorting
    # their key columns: the same distinct keys, in the same order, as
    # np.unique over the columns, with first occurrences.
    rng = np.random.default_rng(5)
    for m in (0, 1, 2, 50, 3000):
        keys = np.vstack([rng.integers(0, 30, m),
                          rng.integers(0, 4, (3, m)).astype(np.int8)])
        got, group, first = _distinct(keys)
        want, index, inverse = np.unique(keys, axis=1, return_index=True,
                                         return_inverse=True)
        assert got.tolist() == want.tolist()
        assert group.tolist() == inverse.reshape(-1).tolist()
        assert first.tolist() == index.tolist()


def test_budget_error_carries_estimate():
    inst = uniform_instance(20, 2)
    with pytest.raises(BudgetExceededError) as info:
        optimal_expected_cost(inst, "abs")
    assert info.value.estimate == estimate_belief_states(20, 2)
    assert info.value.estimate > info.value.budget


@pytest.mark.parametrize("d, shown", [(2, "1.07e+304"), (5, "5.75e+310")])
def test_budget_error_message_rounds_a_huge_estimate(d, shown):
    # The estimate has 305 (d = 2) or 311 (d = 5) digits, beyond the
    # largest float; the message shows three significant digits and
    # .estimate stays exact.
    inst = uniform_instance(1001, d)
    with pytest.raises(BudgetExceededError) as info:
        optimal_expected_cost(inst, "abs")
    assert info.value.estimate == estimate_belief_states(1001, d)
    assert str(info.value) == f"about {shown} belief states exceed the budget of 30000"


@pytest.mark.parametrize("estimate, shown", [
    (0, "0"), (999_999, "999999"), (1_000_000, "1.00e+6"), (1_004_999, "1.00e+6"),
    (1_005_000, "1.01e+6"), (9_994_999, "9.99e+6"), (9_995_000, "1.00e+7"),
    (11_534_336, "1.15e+7")])
def test_budget_error_message_is_exact_below_a_million_and_rounded_above(estimate, shown):
    assert str(BudgetExceededError(estimate, 7)) == (
        f"about {shown} belief states exceed the budget of 7")


def test_default_budget_matches_documented_sizes():
    budget = 30_000
    assert estimate_belief_states(12, 2) <= budget
    assert estimate_belief_states(13, 2) > budget
    assert estimate_belief_states(10, 3) <= budget
    assert estimate_belief_states(11, 3) > budget
    assert estimate_belief_states(8, 4) <= budget


def test_monte_carlo_is_deterministic_per_seed():
    inst = random_instance(4, 2, 9)
    strat = make_strategy("abs4", inst)
    a = monte_carlo_cost(strat, 500, seed=7)
    b = monte_carlo_cost(strat, 500, seed=7)
    assert a == b
    c = monte_carlo_cost(strat, 500, seed=8)
    assert a.mean != c.mean


def test_monte_carlo_matches_exact_within_errors():
    inst = random_instance(3, 2, 21)
    strat = make_strategy("abs4", inst)
    exact = exact_strategy_cost(strat)
    mc = monte_carlo_cost(strat, 20_000, seed=5)
    assert abs(mc.mean - exact) <= 3 * mc.stderr + 1e-12


def test_monte_carlo_zero_cost_instance():
    inst = make_instance([0.0, 0.0, 0.0], [(0.5, 0.5)] * 3)
    strat = make_strategy("naive_abs", inst)
    assert monte_carlo_cost(strat, 100, seed=1).mean == 0.0


@pytest.mark.parametrize("seed", [-1, 2**128], ids=["-1", "2**128"])
def test_monte_carlo_rejects_a_seed_out_of_range(seed):
    strat = make_strategy("abs4", random_instance(3, 2, 2))
    with pytest.raises(ValueError, match=re.escape(
            f"seed must be in [0, 2**128), got {seed}")):
        monte_carlo_cost(strat, 10, seed)
    assert monte_carlo_cost(strat, 10, 2**128 - 1).mean > 0


def test_monte_carlo_single_trial():
    inst = random_instance(3, 2, 2)
    strat = make_strategy("abs4", inst)
    result = monte_carlo_cost(strat, 1, seed=0)
    assert result.stderr == 0.0 and result.mean > 0


def _adversarial(n):
    return generate(GeneratorSpec(kind="adversarial", n=n, d=2, epsilon=1e-3))


def _assert_equals_plain_simulation(strat, trials, seed):
    result = monte_carlo_cost(strat, trials, seed=seed)
    plain = np.array([run_strategy(strat, row).cost
                      for batch in sample_realizations(strat.instance, trials, seed)
                      for row in batch.tolist()])
    assert result.mean == float(plain.mean()), strat.name
    assert result.stderr == float(plain.std(ddof=1) / math.sqrt(trials)), strat.name


def test_monte_carlo_equals_plain_simulation(monkeypatch):
    # Walking the trials together, one depth at a time, must give exactly
    # the mean and stderr of running each sampled row on its own.
    trials, seed = 400, 3
    cases = [strat for inst in (random_instance(5, 3, 31), random_instance(8, 3, 31))
             for strat in every_strategy(inst)]
    for inst in (_adversarial(33), random_instance(30, 4, 31)):
        cases += [make_strategy(name, inst) for name in STRATEGIES]
    for strat in cases:
        _assert_equals_plain_simulation(strat, trials, seed)
    # Each realization batch walks its own frontier: 7-row batches split
    # 30 trials into five batches, the last one short.
    monkeypatch.setattr(oracle_module, "_BATCH_TRIALS", 7)
    for inst in (random_instance(8, 3, 31), _adversarial(33)):
        for name in STRATEGIES:
            _assert_equals_plain_simulation(make_strategy(name, inst), 30, 5)


@pytest.mark.parametrize("cells", [1, 1200])
def test_monte_carlo_phase1_blocks_keep_the_estimate(monkeypatch, cells):
    # The array Phase 1 takes its depths in blocks of at most _PHASE1_CELLS
    # tallies entries.  One depth per block, or blocks of 5 to 10 depths
    # for 60 trials, growing as trials leave, put block boundaries inside
    # the trials' Phase 1; the estimate stays that of plain simulation.
    monkeypatch.setattr(oracle_module, "_PHASE1_CELLS", cells)
    for inst in (random_instance(30, 4, 31), _adversarial(33)):
        for name in STRATEGIES:
            _assert_equals_plain_simulation(make_strategy(name, inst), 60, 5)


@pytest.mark.parametrize("case, trials, chunk", [
    ("adversarial-33", 500, 1 << 14), ("random-30-4", 500, 1 << 14),
    ("adversarial-33", 45, 7), ("random-8-4", 45, 7)])
def test_each_vote_lies_in_its_uniforms_interval(monkeypatch, case, trials, chunk):
    # Trial t reads uniforms [t*n, (t+1)*n) of the seed's Philox stream,
    # whatever the batch size, and vote v of voter i is the v-th interval of
    # the cumulative row: cums[i][v-2] <= u < cums[i][v-1], open at the ends.
    if case == "adversarial-33":
        inst = _adversarial(33)
    else:
        inst = random_instance(int(case.split("-")[1]), 4, 31)
    seed = 9
    n = inst.n
    monkeypatch.setattr(oracle_module, "_BATCH_TRIALS", chunk)
    values = np.concatenate(list(sample_realizations(inst, trials, seed)))
    assert values.shape == (trials, n)
    assert values.dtype == np.min_scalar_type(inst.d)
    u = np.random.Generator(np.random.Philox(key=seed)).random((trials, n))
    cums = np.cumsum(np.asarray(inst.probs, dtype=float), axis=1)
    lo = np.hstack([np.full((n, 1), -np.inf), cums[:, :-1]])
    hi = np.hstack([cums[:, :-1], np.full((n, 1), np.inf)])
    assert ((values >= 1) & (values <= inst.d)).all()
    voter = np.arange(n)
    assert (lo[voter, values - 1] <= u).all()
    assert (u < hi[voter, values - 1]).all()


@pytest.mark.parametrize("cells", [1, 20, 100])
def test_uniform_slices_leave_every_vote_unchanged(monkeypatch, cells):
    # A batch's uniforms are drawn in slices of whole rows, at most
    # _UNIFORM_CELLS values each unless one row alone is more: here slices
    # of one row (8 or 30 voters exceed a limit of 1), of two rows of 8 and
    # of three rows of 30, also across 7-trial batches.  They continue the
    # stream as the single draws above do, so every vote is unchanged.
    cases = [(random_instance(30, 4, 31), 500, 1 << 14),
             (random_instance(8, 4, 31), 45, 7)]

    def sample(inst, trials, chunk):
        monkeypatch.setattr(oracle_module, "_BATCH_TRIALS", chunk)
        return np.concatenate(list(sample_realizations(inst, trials, 9)))

    whole = [sample(*case) for case in cases]
    monkeypatch.setattr(oracle_module, "_UNIFORM_CELLS", cells)
    for case, votes in zip(cases, whole):
        sliced = sample(*case)
        assert sliced.dtype == votes.dtype
        assert np.array_equal(sliced, votes)


_ROUND_ROBINS = {"abs6_threeround": "kofn_permutation_for",
                 "abs10_tworound": "two_candidate_round_robin"}


@pytest.mark.parametrize("name", sorted(_ROUND_ROBINS))
def test_round_robin_permutation_is_built_once_per_input(name, monkeypatch):
    # The permutation reads only the untested mask and the target(s)'
    # support and refutation orders, so each distinct (mask, targets) builds
    # it once; each candidate's orders are sorted once per strategy; and
    # every kernel entry walks exactly the permutation a fresh build on its
    # own inputs, from freshly sorted orders, gives.
    kernel = _ROUND_ROBINS[name]
    original = getattr(strategies, kernel)
    calls, sorts = [], []

    def counted(costs, mask, *orders):
        calls.append((mask, tuple(tuple(map(tuple, pair)) for pair in orders)))
        return original(costs, mask, *orders)

    def sorting(sort):
        def counted_sort(instance, candidate):
            sorts.append((sort.__name__, candidate))
            return sort(instance, candidate)
        return counted_sort

    monkeypatch.setattr(strategies, kernel, counted)
    for sort in ("support_order", "refutation_order"):
        monkeypatch.setattr(strategies, sort, sorting(getattr(strategies, sort)))
    runs = [(random_instance(30, 4, 31), lambda s: monte_carlo_cost(s, 200, 4)),
            (random_instance(8, 3, 31), exact_strategy_cost)]
    for inst, evaluate in runs:
        strat = make_strategy(name, inst)
        entries = []
        if name == "abs6_threeround":
            perm_for = strat._perm_for

            def entry(mask, target):
                perm = perm_for(mask, target)
                entries.append((mask, (target,), perm))
                return perm

            strat._perm_for = entry
        else:
            enter = strat._enter_kernel

            def entry(mask, tallies, unknown, alpha, beta):
                state = enter(mask, tallies, unknown, alpha, beta)
                entries.append((mask, (alpha, beta), state[4]))
                return state

            strat._enter_kernel = entry
        calls.clear()
        sorts.clear()
        evaluate(strat)
        assert len(calls) == len(set(calls)) == len({e[:2] for e in entries})
        assert len(entries) > len(calls)
        assert sorts and len(sorts) == len(set(sorts))
        assert {c for _, c in sorts} == {t for e in entries for t in e[1]}
        for mask, targets, perm in entries:
            fresh = [(support_order(inst, t), refutation_order(inst, t)) for t in targets]
            assert perm == tuple(original(inst.costs, mask, *fresh))


def _transition_cases():
    for name in sorted(STRATEGIES):
        yield pytest.param("adversarial-33", name, id=name)
    for case in ("random-8-3", "random-30-4"):
        for name in sorted(STRATEGIES):
            yield pytest.param(case, name, id=f"{case}-{name}")


@pytest.mark.parametrize("case, name", _transition_cases())
def test_monte_carlo_advances_each_transition_once(case, name):
    # Phase 1 is walked as arrays, with no next_test or advance call on a
    # P1 state.  From the kernel entries on, advance runs once per distinct
    # (state, value) edge out of a non-P1 state and next_test once per
    # distinct non-P1 state the walk reaches: the kernel entries, and every
    # state reached from a non-P1 state (a DONE state reached straight from
    # Phase 1 is never asked).  On adversarial n=33 the reached states
    # number at most trials + 1; on the random instances they exceed it, so
    # a state cache bounded by the trial count could not hold them all.
    # A strategy that declares its kernel tags walked (abs6_threeround,
    # abs10_tworound) has its rounds walked as arrays too: it is never
    # asked next_test, and advance runs once per distinct hand-over from
    # one round to the next, (the round's first state, its tests, the
    # tallies where it ends).
    if case == "adversarial-33":
        inst, trials = _adversarial(33), 500
    elif case == "random-8-3":
        inst, trials = random_instance(8, 3, 31), 60
    else:
        inst, trials = random_instance(30, 4, 31), 200
    seed = 4
    strat = make_strategy(name, inst)
    init = strat.initial_state()
    reached, states, edges, hand_overs = {init}, set(), set(), set()
    if init[0] != P1:
        states.add(init)
    for batch in sample_realizations(inst, trials, seed):
        for row in batch.tolist():
            state = round_start = init
            tests = 0
            while (voter := strat.next_test(state)) is not None:
                child = strat.advance(state, voter, row[voter])
                if state[0] != P1:
                    edges.add((state, row[voter]))
                    tests += 1
                if state[0] != P1 or child[0] not in (P1, DONE):
                    states.add(child)
                if child[0] != DONE and (state[0] == P1 or child[-1] == 0):
                    if state[0] != P1:
                        hand_overs.add((round_start, tests, child[2]))
                    round_start, tests = child, 0
                reached.add(child)
                state = child
    if case == "adversarial-33":
        assert len(reached) <= trials + 1
    else:
        assert len(reached) > trials + 1
    calls = {"advance": 0, "next_test": 0, "phase 1": 0}
    for method in ("advance", "next_test"):
        original = getattr(strat, method)

        def counted(state, *args, method=method, original=original):
            calls["phase 1" if state[0] == P1 else method] += 1
            return original(state, *args)

        setattr(strat, method, counted)
    monte_carlo_cost(strat, trials, seed)
    if KERNEL_A in walks_of(strat):
        expected = {"advance": len(hand_overs), "next_test": 0, "phase 1": 0}
    else:
        expected = {"advance": len(edges), "next_test": len(states), "phase 1": 0}
    assert calls == expected


def test_evaluate_strategy_reports():
    inst = random_instance(4, 2, 55)
    strat = make_strategy("abs4", inst)
    report = evaluate_strategy(strat, method="exact",
                               opt_cost=optimal_expected_cost(inst, "abs"))
    assert report.method == "exact"
    assert report.ratio == pytest.approx(
        report.expected_cost / report.opt_cost)
    mc = evaluate_strategy(strat, method="mc", trials=200, seed=1)
    assert mc.method == "monte-carlo" and mc.trials == 200
    assert mc.stderr is not None


def test_evaluate_strategy_degrades_beyond_budget(monkeypatch):
    # Beyond the oracle's budget the caller passes no optimum; the strategy is
    # still measured, by either method, and the oracle is never solved.
    inst = uniform_instance(20, 2)
    assert estimate_belief_states(inst.n, inst.d) > DEFAULT_MAX_STATES

    def no_oracle(*args, **kwargs):
        raise AssertionError("evaluate_strategy solved the oracle")

    monkeypatch.setattr("quickcount.oracle._Oracle", no_oracle)
    strat = make_strategy("naive_abs", inst)
    for method in ("mc", "exact"):
        report = evaluate_strategy(strat, method=method, trials=50, seed=2)
        assert report.opt_cost is None and report.ratio is None
        assert report.expected_cost > 0.0


@pytest.mark.parametrize("n,d,seed", [(5, 3, 1), (6, 2, 2), (6, 3, 3)])
def test_exact_cost_asks_next_test_once_per_distinct_state(n, d, seed):
    # Once per distinct stepped state, and never on a state the walk
    # expands itself (a declared Phase 1's or round's).  A class that
    # declares walks is never advanced and holds no stopping state, so
    # only a class that declares nothing is asked next_test on one.
    inst = random_instance(n, d, seed)
    for strat in every_strategy(inst):
        _, stepped = evaluated_states(strat)
        asked, advanced = [], []
        next_test, advance = strat.next_test, strat.advance

        def counted(state):
            asked.append(state)
            return next_test(state)

        def counted_advance(state, voter, value):
            advanced.append(state)
            return advance(state, voter, value)

        strat.next_test, strat.advance = counted, counted_advance
        exact_strategy_cost(strat)
        assert len(asked) == len(stepped) and set(asked) == stepped, strat.name
        assert not (walks_of(strat) and advanced), strat.name


@pytest.mark.parametrize("objective", ["abs", "rel"])
@pytest.mark.parametrize("n,d,seed", [(5, 3, 4), (6, 2, 5), (7, 3, 6)])
def test_oracle_checks_each_state_certificate_once(n, d, seed, objective,
                                                   monkeypatch):
    # The certificates read only the tallies and the untested count, so the
    # sweep checks each tallies vector with at most n votes once.
    inst = random_instance(n, d, seed)
    calls = 0
    cert = CERTIFICATES[objective]

    def counted(*args):
        nonlocal calls
        calls += 1
        return cert(*args)

    monkeypatch.setitem(CERTIFICATES, objective, counted)
    value = _Oracle(inst, objective).initial_value()
    assert calls == math.comb(n + d, d)
    assert value == optimal_expected_cost(inst, objective)


@st.composite
def small_instances(draw):
    """Instances with n <= 5 voters and d <= 3 candidates."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(2, 3))
    costs = draw(st.lists(st.floats(0.0, 3.0, allow_nan=False,
                                    allow_infinity=False),
                          min_size=n, max_size=n))
    rows = []
    for _ in range(n):
        weights = draw(st.lists(st.integers(1, 9), min_size=d, max_size=d))
        rows.append([w / sum(weights) for w in weights])
    return make_instance(costs, rows)


@settings(max_examples=40, deadline=None)
@given(small_instances(), st.sampled_from(["abs", "rel"]))
def test_layered_oracle_equals_raw_recursion_exactly(inst, objective):
    # Same sums in the same order, ties kept by the first minimum: the
    # layered sweep and the unmemoized raw recursion agree to the bit.
    assert optimal_expected_cost(inst, objective) == brute_optimal(inst, objective)


# sha256 over every stored value's bytes and every undecided state's best
# test, walking each layer's tallies vectors in _compositions order and, for
# the moves, the masks in ascending order, which is the stored rank order.
# The seed of each (n, d) is 7n + d.
_ORACLE_DIGESTS = {
    (6, 2, "abs"): "77d66f02114492b78d145a22c23eb6c1f21e15420aefd3f33a798e498f0861a8",
    (6, 2, "rel"): "77d66f02114492b78d145a22c23eb6c1f21e15420aefd3f33a798e498f0861a8",
    (6, 3, "abs"): "8fc460524ff72a0589929a8030e851ffdac547e6e3aa615a992f0de5c82e98a2",
    (6, 3, "rel"): "8c4949fc12448c6ebcd8c721ea26abd7be5f531ed0e323fd44e5498aa4826127",
    (6, 4, "abs"): "39186807928f93b14b563a5810848d20146e41d1838984410eb2bf6084b1151f",
    (6, 4, "rel"): "c83392b3563ae755e581a3d485038f8f7c671c15862eeabbe15e19ab243a3161",
    (7, 2, "abs"): "3ec7769a35ff872376740b6dfecad370f61b3cc6787db6f11f1a43a978750c12",
    (7, 2, "rel"): "3ec7769a35ff872376740b6dfecad370f61b3cc6787db6f11f1a43a978750c12",
    (7, 3, "abs"): "f7bf563903321bfac914d099e0e103c070d9652f395cce1eb549003a52ead800",
    (7, 3, "rel"): "0cc68e9ab02aa15c8c69bec4089a591a67d9f7cd3f060872cc8fcadc386c9c19",
    (7, 4, "abs"): "e5b32040549e0e3bfd40a2161725b961421ef6cddccae8aad636a67a6f738b16",
    (7, 4, "rel"): "6e4a7f90268dd39054b48f617be6b950052ec54b1f336d7590797dc157673d40",
    (8, 2, "abs"): "1aca87fe63ef42f15b5511c6676803f9d2c8bb47c8d096336049766771e2df16",
    (8, 2, "rel"): "1aca87fe63ef42f15b5511c6676803f9d2c8bb47c8d096336049766771e2df16",
    (8, 3, "abs"): "e4889d64c5420cf77f5b192d31b27dbd296f655e6e021b34f45a3bec2bf4d78d",
    (8, 3, "rel"): "4f86e118d3ee376cd45ca9297278ba280003703565e2a4b468915b5ec604caae",
    (8, 4, "abs"): "bf872455588a2a438c17c8902195c0b7a5cfcf275be03df50912c2d682c89995",
    (8, 4, "rel"): "b4b6d043fca30ff370eb8008f64ea834dd91f5b34c3ab1abd186365934c4a15b",
    (10, 3, "abs"): "48f0c1dee4f49feca9fcb1822b3e5ada3603f5cb26b5be83d8b5c2f1d1b15c7b",
    (10, 3, "rel"): "a91fee7d891580ded3b2d3d87acdbd14102b1ddd1a6f0f1229987b45744531c7",
    (12, 2, "abs"): "60e310d80de175f98fd3d610000c9d168a1ce5e28d7fafa4f813aaf635e792d1",
    (12, 2, "rel"): "60e310d80de175f98fd3d610000c9d168a1ce5e28d7fafa4f813aaf635e792d1",
}


def _oracle_digest(n, d, objective):
    oracle = _Oracle(random_instance(n, d, 7 * n + d), objective)
    digest = hashlib.sha256()
    for t in range(n + 1):
        masks = [mask for mask in range(1 << n) if mask.bit_count() == n - t]
        for tallies in oracle_module._compositions(t, d):
            digest.update(repr(tallies).encode())
            digest.update(oracle._values[tallies].tobytes())
            if CERTIFICATES[objective](tallies, n - t, n) is None:
                moves = [oracle.best_test(mask, tallies)[1] for mask in masks]
                digest.update(np.asarray(moves, dtype=np.int64).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("n, d, objective", sorted(_ORACLE_DIGESTS))
def test_every_stored_value_and_move_is_pinned_to_the_bit(n, d, objective):
    # Only the root value is checked against the raw recursion, and only at
    # n <= 5; this pins the whole table at exact-corpus and oracle-large sizes.
    assert _oracle_digest(n, d, objective) == _ORACLE_DIGESTS[n, d, objective]


# One mask per block; and blocks of 33, 19 and 47 masks in the middle
# layers of (8,3), (10,3) and (12,2) (15, 21 and 7 undecided tallies
# vectors against 4, 5 and 6 untested voters), which leave each of those
# layers (70, 252 and 924 masks) a short last block.
@pytest.mark.parametrize("cells", [1, 2000])
@pytest.mark.parametrize("n, d, objective", [(8, 3, "rel"), (10, 3, "abs"),
                                             (12, 2, "abs")])
def test_oracle_blocks_keep_every_value_and_move(monkeypatch, n, d, objective,
                                                  cells):
    monkeypatch.setattr(oracle_module, "_ORACLE_CELLS", cells)
    assert _oracle_digest(n, d, objective) == _ORACLE_DIGESTS[n, d, objective]


@pytest.mark.parametrize("objective", ["abs", "rel"])
def test_oracle_edges_at_one_and_two_voters(objective):
    one = make_instance([2.5], [(0.2, 0.3, 0.5)])
    oracle = _Oracle(one, objective)
    assert oracle.best_test(0b1, (0, 0, 0)) == (2.5, 0)
    for j in range(3):
        tallies = tuple(int(k == j) for k in range(3))
        assert oracle.value(0b0, tallies) == 0.0
        with pytest.raises(ValueError, match="decide"):
            oracle.best_test(0b0, tallies)
    # Two voters always need both votes; either order costs exactly 3.0,
    # so the tie goes to voter 0.
    two = make_instance([1.0, 2.0], [(0.25, 0.75), (0.25, 0.75)])
    oracle = _Oracle(two, objective)
    assert oracle.best_test(0b11, (0, 0)) == (3.0, 0)
    assert oracle.best_test(0b10, (1, 0)) == (2.0, 1)
    assert oracle.best_test(0b01, (0, 1)) == (1.0, 0)
    assert oracle.value(0b00, (1, 1)) == 0.0
    assert oracle.initial_value() == optimal_expected_cost(two, objective) == 3.0


def test_budget_refuses_before_any_work_and_admits_its_estimate(monkeypatch):
    inst = random_instance(6, 3, 8)
    estimate = estimate_belief_states(6, 3)
    # Without numpy any allocation fails, so a refusal proves none was made.
    monkeypatch.setattr(oracle_module, "np", None)
    with pytest.raises(BudgetExceededError) as info:
        _Oracle(inst, "abs", max_states=estimate - 1)
    assert (info.value.estimate, info.value.budget) == (estimate, estimate - 1)
    monkeypatch.undo()
    oracle = _Oracle(inst, "abs", max_states=estimate)
    assert sum(v.size for v in oracle._values.values()) == estimate
    assert oracle.initial_value() == optimal_expected_cost(inst, "abs", estimate)


def test_lookups_reject_a_mask_that_does_not_match_the_tallies():
    # Five untested voters cannot go with one counted vote, nor two with
    # one of five; each lookup would read another state's column.
    oracle = _Oracle(random_instance(5, 3, 1), "abs")
    # Nor can tallies of another length than d, a negative tally or a
    # tally that is not an int, though their sum matches the mask.
    for mask, tallies in [(0b11111, (1, 0, 0)), (0b00011, (0, 0, 1)),
                          (-1, (2, 1, 1)), (1 << 5 | 1, (1, 1, 1)),
                          (0b11, (1, 1, 1, 0)), (0b11, (2, 2, -1)),
                          (0b111, (1.0, 1, 0))]:
        with pytest.raises(ValueError, match="not one state"):
            oracle.value(mask, tallies)
        with pytest.raises(ValueError, match="not one state"):
            oracle.best_test(mask, tallies)
    assert oracle.value(0b00011, (1, 1, 1)) == oracle.best_test(0b00011, (1, 1, 1))[0]


def test_negative_budget_is_rejected_and_zero_refuses():
    inst = random_instance(3, 2, 1)
    with pytest.raises(ValueError, match="max_states must be >= 0"):
        _Oracle(inst, "abs", max_states=-1)
    with pytest.raises(BudgetExceededError):
        _Oracle(inst, "abs", max_states=0)


def _undecided_states(oracle):
    n, d = oracle.instance.n, oracle.instance.d
    for mask in range(1 << n):
        tested = n - mask.bit_count()
        for tallies in oracle_module._compositions(tested, d):
            if CERTIFICATES[oracle.objective](tallies, n - tested, n) is None:
                yield mask, tallies


def test_ties_go_to_the_lowest_untested_voter():
    # Identical voters, of equal cost and equal probability rows, tie
    # exactly in every state, under both objectives.
    n, d = 6, 3
    for inst in (uniform_instance(n, d),
                 make_instance([2.5] * n, [(0.2, 0.3, 0.5)] * n)):
        for objective in ("abs", "rel"):
            oracle = _Oracle(inst, objective)
            undecided = 0
            for mask, tallies in _undecided_states(oracle):
                undecided += 1
                lowest = (mask & -mask).bit_length() - 1
                assert oracle.best_test(mask, tallies)[1] == lowest
            assert undecided > 0


@pytest.mark.parametrize("objective", ["abs", "rel"])
@pytest.mark.parametrize("inst", [random_instance(8, 3, 5), random_instance(12, 2, 6),
                                  uniform_instance(6, 3),
                                  make_instance([2.5] * 6, [(0.2, 0.3, 0.5)] * 6)],
                         ids=["random-8-3", "random-12-2", "uniform-6-3", "equal-6-3"])
def test_best_test_cost_is_the_stored_value_to_the_bit(inst, objective):
    # best_test re-derives its cost from the layer below; it must be the
    # value the solve stored, in every undecided state.
    oracle = _Oracle(inst, objective)
    states = 0
    for mask, tallies in _undecided_states(oracle):
        states += 1
        assert oracle.best_test(mask, tallies)[0].hex() == oracle.value(mask, tallies).hex()
    assert states > 0


@pytest.mark.parametrize("objective", ["abs", "rel"])
@pytest.mark.parametrize("n,d,seed", [(6, 3, 11), (8, 2, 12)])
def test_optimal_strategy_cost_is_the_optimum_to_the_bit(n, d, seed, objective):
    inst = random_instance(n, d, seed)
    assert exact_strategy_cost(OptimalStrategy(inst, objective)) == \
        optimal_expected_cost(inst, objective)


@pytest.mark.parametrize("name", ["rel8", "adg_abs"])
def test_exact_cost_selects_once_per_distinct_selection_input(name, monkeypatch):
    # A dual-greedy state is reached along many edges.  Its selection reads
    # the slots before its voter and the charges it was reached with, and
    # runs once per distinct such input.  A few inputs share a settled
    # state: the last untested item's charge is raised to its cost from
    # any starting charge.
    inst = _adversarial(33)
    walker = make_strategy(name, inst)
    init = walker.initial_state()
    inputs, settled = set(), set()
    if init[0] == KERNEL_A:
        inputs.add((init[:-2], (0.0,) * len(init[-1])))
        settled.add(init)
    seen, stack = {init}, [init]
    while stack:
        state = stack.pop()
        voter = walker.next_test(state)
        if voter is None:
            continue
        for j in (1, 2):
            child = walker.advance(state, voter, j)
            if child[0] == KERNEL_A:
                charges = (state[-1] if state[0] == KERNEL_A
                           else (0.0,) * len(child[-1]))
                inputs.add((child[:-2], charges))
                settled.add(child)
            if child not in seen:
                seen.add(child)
                stack.append(child)
    calls = 0
    select = strategies.adg_select

    def counted(*args):
        nonlocal calls
        calls += 1
        return select(*args)

    monkeypatch.setattr(strategies, "adg_select", counted)
    exact_strategy_cost(make_strategy(name, inst))
    assert len(settled) <= calls == len(inputs)


@pytest.mark.parametrize("n", [33, 45, 101])
def test_exact_evaluation_at_the_papers_scale(n):
    # abs4 is the SBB strategy, optimal for two candidates: its exact cost on
    # the adversarial family equals the grouped (n//2 + 1)-of-n optimum.  The
    # tree is exponential in n; the DAG of distinct states is small.
    inst = generate(GeneratorSpec(kind="adversarial", n=n, d=2, epsilon=1e-3))
    opt = kofn_optimal(inst.costs, [row[0] for row in inst.probs], k=n // 2 + 1)
    assert exact_strategy_cost(make_strategy("abs4", inst)) == pytest.approx(
        opt, rel=1e-12)
    if n == 101:
        # The exact form of criterion 9's separation.
        assert exact_strategy_cost(make_strategy("naive_abs", inst)) >= 45.0


@pytest.mark.parametrize("n", [33, 51, 101])
def test_rel8_exact_cost_at_the_papers_scale(n):
    # For two candidates and odd n the relative and absolute questions
    # coincide, so OPT is the grouped (n//2 + 1)-of-n optimum.  Kernel A is
    # keyed by score counts, so the DAG stays small (17,070 states at
    # n=101); the Monte Carlo estimate must agree with the exact cost.
    inst = _adversarial(n)
    opt = kofn_optimal(inst.costs, [row[0] for row in inst.probs], k=n // 2 + 1)
    exact = exact_strategy_cost(make_strategy("rel8", inst))
    assert opt <= exact <= 8 * opt
    mc = monte_carlo_cost(make_strategy("rel8", inst), 20_000, seed=n)
    assert abs(mc.mean - exact) <= 4 * mc.stderr
