import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (brute_optimal, every_strategy, kofn_optimal, make_instance,
                      random_instance, sweep_cost, uniform_instance)
from quickcount import oracle as oracle_module
from quickcount import strategies
from quickcount.bench import GeneratorSpec, generate
from quickcount.core import abs_certificate_from_tallies
from quickcount.oracle import (DEFAULT_MAX_STATES, BudgetExceededError,
                               OptimalStrategy, StrategyError, _Oracle,
                               estimate_belief_states, evaluate_strategy,
                               exact_strategy_cost, monte_carlo_cost,
                               optimal_expected_cost, sample_realizations)
from quickcount.strategies import (KERNEL_A, STRATEGIES, NaiveCheapest,
                                   make_strategy, run_strategy)


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


def test_exact_cost_rejects_protocol_violations():
    inst = uniform_instance(3, 2)
    with pytest.raises(StrategyError, match="certificate"):
        exact_strategy_cost(_StopsEarly(inst))
    with pytest.raises(StrategyError, match="retested"):
        exact_strategy_cost(_Retests(inst))


def test_budget_error_carries_estimate():
    inst = uniform_instance(20, 2)
    with pytest.raises(BudgetExceededError) as info:
        optimal_expected_cost(inst, "abs")
    assert info.value.estimate == estimate_belief_states(20, 2)
    assert info.value.estimate > info.value.budget


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


def test_monte_carlo_single_trial():
    inst = random_instance(3, 2, 2)
    strat = make_strategy("abs4", inst)
    result = monte_carlo_cost(strat, 1, seed=0)
    assert result.stderr == 0.0 and result.mean > 0


def _adversarial(n):
    return generate(GeneratorSpec(kind="adversarial", n=n, d=2, epsilon=1e-3))


def test_monte_carlo_cache_cap_does_not_change_results():
    # A cache of two states runs almost every trial uncached; both must give
    # exactly the mean and stderr of running each sampled row on its own.
    trials, seed = 400, 3
    cases = [(inst, strat) for inst in (random_instance(5, 3, 31),
                                        random_instance(8, 3, 31))
             for strat in every_strategy(inst)]
    adversarial = _adversarial(33)
    cases += [(adversarial, make_strategy(name, adversarial))
              for name in STRATEGIES]
    for inst, strat in cases:
        full = monte_carlo_cost(strat, trials, seed=seed)
        capped = monte_carlo_cost(strat, trials, seed=seed, max_cached_nodes=2)
        assert full == capped, strat.name
        plain = np.array([run_strategy(strat, row).cost
                          for batch in sample_realizations(inst, trials, seed)
                          for row in batch.tolist()])
        assert full.mean == float(plain.mean()), strat.name
        assert full.stderr == float(plain.std(ddof=1) / math.sqrt(trials)), strat.name


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_monte_carlo_advances_each_transition_once(name):
    # On adversarial n=33 every reached state fits in the cache (at most
    # trials + 1 states), so advance runs once per distinct (state, value)
    # edge and next_test once per distinct state.
    trials, seed = 500, 4
    inst = _adversarial(33)
    strat = make_strategy(name, inst)
    init = strat.initial_state()
    states, edges = {init}, set()
    for batch in sample_realizations(inst, trials, seed):
        for row in batch.tolist():
            state = init
            while (voter := strat.next_test(state)) is not None:
                edges.add((state, row[voter]))
                state = strat.advance(state, voter, row[voter])
                states.add(state)
    assert len(states) <= trials + 1
    calls = {"advance": 0, "next_test": 0}
    for method in calls:
        original = getattr(strat, method)

        def counted(*args, method=method, original=original):
            calls[method] += 1
            return original(*args)

        setattr(strat, method, counted)
    monte_carlo_cost(strat, trials, seed)
    assert calls == {"advance": len(edges), "next_test": len(states)}


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


def _reachable_states(strategy):
    """Distinct states reachable from initial_state over next_test/advance."""
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
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


@pytest.mark.parametrize("n,d,seed", [(5, 3, 1), (6, 2, 2), (6, 3, 3)])
def test_exact_cost_asks_next_test_once_per_distinct_state(n, d, seed):
    inst = random_instance(n, d, seed)
    for strat in every_strategy(inst):
        distinct = len(_reachable_states(strat))
        calls = 0
        next_test = strat.next_test

        def counted(state):
            nonlocal calls
            calls += 1
            return next_test(state)

        strat.next_test = counted
        exact_strategy_cost(strat)
        assert calls == distinct, strat.name


@pytest.mark.parametrize("objective", ["abs", "rel"])
@pytest.mark.parametrize("n,d,seed", [(5, 3, 4), (6, 2, 5), (7, 3, 6)])
def test_oracle_checks_each_state_certificate_once(n, d, seed, objective,
                                                   monkeypatch):
    # The certificates read only the tallies and the untested count, so the
    # sweep checks each tallies vector with at most n votes once.
    inst = random_instance(n, d, seed)
    calls = 0
    cert = oracle_module._CERTS[objective]

    def counted(*args):
        nonlocal calls
        calls += 1
        return cert(*args)

    monkeypatch.setitem(oracle_module._CERTS, objective, counted)
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


def test_ties_go_to_the_lowest_untested_voter():
    # Identical voters tie exactly in every state.
    n, d = 6, 3
    inst = uniform_instance(n, d)
    oracle = _Oracle(inst, "abs")
    undecided = 0
    for mask in range(1 << n):
        tested = n - mask.bit_count()
        for tallies in oracle_module._compositions(tested, d):
            if abs_certificate_from_tallies(tallies, n - tested, n) is None:
                undecided += 1
                lowest = (mask & -mask).bit_length() - 1
                assert oracle.best_test(mask, tallies)[1] == lowest
    assert undecided > 0


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
    # keyed by score counts, so the DAG stays small (17,221 states at
    # n=101); the Monte Carlo estimate must agree with the exact cost.
    inst = _adversarial(n)
    opt = kofn_optimal(inst.costs, [row[0] for row in inst.probs], k=n // 2 + 1)
    exact = exact_strategy_cost(make_strategy("rel8", inst))
    assert opt <= exact <= 8 * opt
    mc = monte_carlo_cost(make_strategy("rel8", inst), 20_000, seed=n)
    assert abs(mc.mean - exact) <= 4 * mc.stderr
