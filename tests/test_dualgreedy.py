import dataclasses

import numpy as np
import pytest

from conftest import g_pair, random_instance, reachable_states
from quickcount.dualgreedy import (MalformedGoalError, adg_ratio_samples,
                                   adg_run, adg_select)
from quickcount.goals import (GoalFunction, abs_majority_goal, g_for, or_combine,
                              ternary_threshold_goal)
from quickcount.strategies import KERNEL_A, AdgAbsMajority

BINARY = [{0: 0.5, 1: 0.5}]


def _count_goal(n):
    return GoalFunction(lambda b: sum(1 for v in b if v is not None), n,
                        name="count")


def test_unit_marginals_reduce_to_cheapest_first():
    costs = [3.0, 1.0, 2.0]
    probs = [{0: 0.5, 1: 0.5}] * 3
    run = adg_run(_count_goal(3), costs, probs, [None] * 3, [1, 0, 1])
    assert run.tested == (1, 2, 0)
    assert run.cost == 6.0


def test_single_forced_test_reaches_goal():
    goal = ternary_threshold_goal(1, 1)
    probs = [{0: 0.2, 1: 0.3, 2: 0.5}]
    for value in (0, 1, 2):
        run = adg_run(goal, [1.0], probs, [None], [value])
        assert run.tested == (0,)
        assert goal.evaluate(run.b) == goal.goal


def test_first_selection_follows_charge_rates():
    # theta=3 over two {0,1,2} variables with unit costs.  Revealing a 0
    # settles the question outright (gain 6); revealing a 2 gains 4.  With
    # P[2] = 0.5 / 0.8 and the rest on 0, the expected marginals are
    # w = (5.0, 4.4), so voter 0 exhausts its budget first.
    goal = ternary_threshold_goal(3, 2)
    probs = [{2: 0.5, 0: 0.5, 1: 0.0}, {2: 0.8, 0: 0.2, 1: 0.0}]
    run = adg_run(goal, [1.0, 1.0], probs, [None, None], [2, 2])
    assert run.tested[0] == 0
    assert goal.evaluate(run.b) == goal.goal


def test_charge_feasibility_and_exhaustion(rng):
    # Each adg_abs kernel state holds the voter its selection chose and the
    # charges after the raise that chose it.
    for seed in range(30):
        inst = random_instance(int(rng.integers(2, 7)), 3, seed + 900)
        goal = abs_majority_goal(inst)
        probs = [{j: row[j - 1] for j in (1, 2, 3)} for row in inst.probs]
        x = [int(rng.integers(1, 4)) for _ in range(inst.n)]
        run = adg_run(goal, inst.costs, probs, [None] * inst.n, x)
        assert run.cost == pytest.approx(sum(inst.costs[v] for v in run.tested))
        selections = 0
        for state in reachable_states(AdgAbsMajority(inst)):
            if state[0] != KERNEL_A:
                continue
            selections += 1
            voter, charges = state[4], state[5]
            # The tested item's charge equals its cost at selection time.
            assert charges[voter] == pytest.approx(inst.costs[voter], abs=1e-9)
            for i, a in enumerate(charges):
                assert a <= inst.costs[i] + 1e-9
        assert selections > 0


def test_termination_and_replay_determinism():
    inst = random_instance(6, 3, 321)
    goal = abs_majority_goal(inst)
    probs = [{j: row[j - 1] for j in (1, 2, 3)} for row in inst.probs]
    x = [1, 2, 3, 1, 2, 1]
    first = adg_run(goal, inst.costs, probs, [None] * 6, x)
    second = adg_run(goal, inst.costs, probs, [None] * 6, x)
    assert first.tested == second.tested
    assert len(first.tested) <= 6


def test_zero_cost_items_tested_immediately():
    goal = _count_goal(3)
    run = adg_run(goal, [1.0, 0.0, 0.0], BINARY * 3, [None] * 3, [1, 1, 1])
    assert run.tested[:2] == (1, 2)


def test_malformed_goal_signaled():
    stuck = GoalFunction(lambda b: 0, 5, name="stuck")
    with pytest.raises(MalformedGoalError):
        adg_run(stuck, [1.0], BINARY, [None], [1])


def test_single_test_run_has_ratio_one():
    goal = ternary_threshold_goal(1, 1)
    samples = adg_ratio_samples(goal, [1.0], [{0: 0.2, 1: 0.3, 2: 0.5}], [2])
    assert len(samples) == 1
    assert samples[0].prefix == ()
    assert samples[0].ratio == 1.0


def test_ratio_samples_are_at_least_one(rng):
    for seed in range(20):
        m = int(rng.integers(1, 7))
        theta = int(rng.integers(1, 2 * m + 1))
        goal = ternary_threshold_goal(theta, m)
        p = rng.dirichlet(np.ones(3))
        probs = [{0: p[0], 1: p[1], 2: p[2]}] * m
        costs = [float(rng.uniform(0.1, 2.0)) for _ in range(m)]
        x = [int(rng.integers(0, 3)) for _ in range(m)]
        for sample in adg_ratio_samples(goal, costs, probs, x):
            assert sample.denominator > 0
            assert sample.numerator >= sample.denominator


def test_ratio_envelopes_small_scale(rng):
    # Acceptance reruns these at scale: 2d-1 for the composed majority
    # goal, 3 for ternary thresholds.
    for seed in range(10):
        d = int(rng.integers(2, 5))
        inst = random_instance(int(rng.integers(2, 7)), d, seed + 40)
        goal = abs_majority_goal(inst)
        probs = [{j: row[j - 1] for j in range(1, d + 1)} for row in inst.probs]
        x = [int(rng.integers(1, d + 1)) for _ in range(inst.n)]
        for s in adg_ratio_samples(goal, inst.costs, probs, x):
            assert s.numerator <= (2 * d - 1) * s.denominator
    for seed in range(10):
        m = int(rng.integers(1, 9))
        theta = int(rng.integers(1, 2 * m + 1))
        goal = ternary_threshold_goal(theta, m)
        probs = [{0: 0.3, 1: 0.3, 2: 0.4}] * m
        x = [int(rng.integers(0, 3)) for _ in range(m)]
        for s in adg_ratio_samples(goal, [1.0] * m, probs, x):
            assert s.numerator <= 3 * s.denominator


def test_run_respects_preassigned_entries():
    goal = _count_goal(3)
    run = adg_run(goal, [1.0, 1.0, 1.0], BINARY * 3, [1, None, None], [1, 0, 1])
    assert 0 not in run.tested
    assert run.cost == 2.0


def _reference_select(goal, costs, value_probs, b, charges, untested):
    """adg_select by probing every value of every untested item."""
    base = goal.evaluate(b)
    weights = {}
    probe = list(b)
    for i in untested:
        w = 0.0
        for value, p in value_probs[i].items():
            if p <= 0.0:
                continue
            probe[i] = value
            w += p * (goal.evaluate(probe) - base)
        probe[i] = None
        if w > 0.0:
            weights[i] = w
    if not weights:
        raise MalformedGoalError("no positive gain")
    best, theta = -1, None
    for i, w in weights.items():
        need = max(costs[i] - charges.get(i, 0.0), 0.0) / w
        if theta is None or need < theta:
            theta, best = need, i
    return best, theta, weights


def _random_goal(rng, n):
    """A library goal over n entries and the values it reads."""
    d = int(rng.integers(2, 5))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        inst = random_instance(n, d, int(rng.integers(1000)))
        return abs_majority_goal(inst), list(range(1, d + 1))
    if kind == 1:
        return ternary_threshold_goal(int(rng.integers(1, 2 * n + 1)), n), [0, 1, 2]
    if kind == 2:
        j, k = (int(v) for v in rng.choice(np.arange(1, d + 1), 2, replace=False))
        return g_pair(j, k, n), list(range(1, d + 1))
    return or_combine([g_for(j, n) for j in range(1, d + 1)]), list(range(1, d + 1))


def test_adg_select_prices_each_value_once(rng):
    # Same picks, rates and marginals as probing every item, with at most
    # one goal evaluation for the base and one per distinct value.
    checked = 0
    for _ in range(400):
        n = int(rng.integers(1, 9))
        goal, values = _random_goal(rng, n)
        untested = sorted(int(i) for i in rng.choice(
            n, int(rng.integers(1, n + 1)), replace=False))
        b = [None if i in untested else int(rng.choice(values)) for i in range(n)]
        if goal.reached(b):
            continue
        value_probs = []
        for _ in range(n):
            p = rng.dirichlet(np.ones(len(values)))
            p[rng.random(len(values)) < 0.2] = 0.0
            value_probs.append({v: float(q) for v, q in zip(values, p)})
        costs = [0.0 if rng.random() < 0.1 else float(rng.uniform(0.1, 2.0))
                 for _ in range(n)]
        charges = {i: float(rng.uniform(0.0, costs[i])) for i in untested
                   if rng.random() < 0.5}
        calls = 0

        def counted(vector, evaluate=goal.evaluate):
            nonlocal calls
            calls += 1
            return evaluate(vector)

        probed = dataclasses.replace(goal, evaluate=counted)
        try:
            expected = _reference_select(goal, costs, value_probs, b, charges,
                                         untested)
        except MalformedGoalError:
            with pytest.raises(MalformedGoalError):
                adg_select(probed, costs, value_probs, b, charges, untested)
            continue
        assert adg_select(probed, costs, value_probs, b, charges,
                          untested) == expected
        distinct = {v for i in untested for v, p in value_probs[i].items() if p > 0.0}
        assert calls <= 1 + len(distinct)
        # The goal is symmetric, so the revealed values alone, with no
        # None, select the same.
        revealed = [v for v in b if v is not None]
        assert adg_select(goal, costs, value_probs, revealed, charges,
                          untested) == expected
        checked += 1
    assert checked > 100
