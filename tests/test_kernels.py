import numpy as np
import pytest

from conftest import (all_realizations, kofn_optimal, make_instance,
                      random_instance, realization_prob, uniform_instance)
from quickcount.core import blocking_threshold, majority_threshold
from quickcount.kernels import (_sbb_pick, kofn_permutation_for,
                                modified_round_robin, refutation_order,
                                support_order)
from quickcount.strategies import (DONE, KERNEL_B, P1, Abs4, Rel8, abs4,
                                   make_strategy, naive_cheapest)


def _pick(inst, target, k, z, untested=None):
    """_sbb_pick for target over the untested voters (all by default)."""
    voters = range(inst.n) if untested is None else untested
    return _sbb_pick(k, z, support_order(inst, target),
                     refutation_order(inst, target), sum(1 << v for v in voters))


def test_sbb_next_examples():
    # Two-candidate instances: voter v votes for candidate 1 with p = probs[v][0].
    inst = make_instance([1, 1, 1], [(0.9, 0.1), (0.5, 0.5), (0.1, 0.9)])
    assert _pick(inst, 1, k=2, z=2) == 1
    single = make_instance([2.0], [(0.3, 0.7)])
    assert _pick(single, 1, k=1, z=1) == 0
    cheap_first = make_instance([1, 2], [(0.5, 0.5), (0.5, 0.5)])
    assert _pick(cheap_first, 1, k=1, z=2) == 0


def test_sbb_next_lies_in_both_prefixes():
    # Over a random untested subset U, k in 1..|U| and z = |U| - k + 1, the
    # pick lies in the k-prefix of U by c/p and the z-prefix by c/(1-p).
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = int(rng.integers(1, 8))
        costs = [float(rng.uniform(0, 2)) for _ in range(m)]
        ps = [float(rng.uniform(0.05, 0.95)) for _ in range(m)]
        inst = make_instance(costs, [(p, 1 - p) for p in ps])
        untested = {v for v in range(m) if rng.random() < 0.7} or {0}
        k = int(rng.integers(1, len(untested) + 1))
        z = len(untested) - k + 1
        pick = _pick(inst, 1, k, z, untested)
        by_cp = [v for v in support_order(inst, 1) if v in untested]
        by_cq = [v for v in refutation_order(inst, 1) if v in untested]
        assert pick in set(by_cp[:k]) and pick in set(by_cq[:z])


def _sbb_walk(inst, target, x):
    """The SBB walk for "target wins an absolute majority" on realization
    x, one _sbb_pick per test.  Returns (verdict, tested voters, cost)."""
    k, z = majority_threshold(inst.n), blocking_threshold(inst.n)
    tested = []
    cost = 0.0
    while k > 0 and z > 0:
        v = _pick(inst, target, k, z,
                  [u for u in range(inst.n) if u not in tested])
        tested.append(v)
        cost += inst.costs[v]
        if x[v] == target:
            k -= 1
        else:
            z -= 1
    return k == 0, tested, cost


def test_sbb_evaluate_example():
    inst = make_instance([1, 2, 3], [(0.6, 0.4)] * 3)
    assert _sbb_walk(inst, 1, (1, 1, 2)) == (True, [0, 1], 3.0)
    # With two candidates and odd n, abs4 takes the same steps.
    assert abs4(inst, (1, 1, 2)).tested_voters() == [0, 1]


def test_sbb_evaluate_trivial_cases():
    # A decided question leaves nothing to test: abs4's kernel stops at once.
    inst = uniform_instance(3, 2)
    strat = Abs4(inst)
    for votes, winner in (((1, 1), 1), ((2, 2), 2)):
        state = strat.initial_state()
        for v, value in enumerate(votes):
            state = strat.advance(state, v, value)
        assert state[0] == DONE and strat.next_test(state) is None
        assert strat.result(state) == winner
    k, z = strat._sbb_needs((2, 0), 1, 1)
    assert k <= 0 < z
    k, z = strat._sbb_needs((0, 2), 1, 1)
    assert z <= 0 < k


def _sbb_question_cost(inst, target, k):
    """Expected cost of the SBB walk for "k more votes for target", summed
    over all realizations."""
    n, d = inst.n, inst.d
    total = 0.0
    for x in all_realizations(n, d):
        _, _, cost = _sbb_walk(inst, target, x)
        total += realization_prob(inst, x) * cost
    return total


@pytest.mark.parametrize("seed", range(12))
def test_sbb_evaluate_matches_kofn_optimum(seed):
    # Merge non-target candidates; the walk must equal the exact k-of-n DP.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    inst = random_instance(n, 2, seed + 100)
    opt = kofn_optimal(inst.costs, [row[0] for row in inst.probs],
                       k=n // 2 + 1)
    got = _sbb_question_cost(inst, 1, n // 2 + 1)
    assert got == pytest.approx(opt, abs=1e-9)


def test_conjunction_evaluate_examples():
    # "Every untested vote is for alpha" is refuted fastest in increasing
    # c/(1 - p_alpha); rel8's last kernel walks that order.
    inst = make_instance([1, 1], [(0.9, 0.1), (0.5, 0.5)])
    assert refutation_order(inst, 1) == [1, 0]  # ratios 10 vs 2
    assert refutation_order(inst, 2) == [0, 1]  # ratios 1/0.9 vs 2
    strat = Rel8(inst)
    # State layout (tag, mask, tallies, unknown, alpha, beta); bit v of
    # mask is set while voter v is untested.
    assert strat.next_test((KERNEL_B, 0b11, (0, 0), 2, 1, 2)) == 1
    assert strat.next_test((KERNEL_B, 0b01, (1, 0), 1, 1, 2)) == 0


def test_modified_round_robin_example():
    costs = {1: 1.0, 2: 3.0, 3: 2.0}
    cost_vec = [0.0, 1.0, 3.0, 2.0]
    raw = modified_round_robin([[1, 2], [2, 3]], cost_vec, dedup=False)
    assert raw == [1, 2, 2, 3]
    assert modified_round_robin([[1, 2], [2, 3]], cost_vec) == [1, 2, 3]


def test_modified_round_robin_trivial_cases():
    costs = [1.0, 2.0, 3.0]
    assert modified_round_robin([[2, 0, 1]], costs) == [2, 0, 1]
    assert modified_round_robin([[0, 1], [0, 1]], costs) == [0, 1]
    with pytest.raises(ValueError):
        modified_round_robin([], costs)
    with pytest.raises(ValueError):
        modified_round_robin([[0, 0]], costs)


def _is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(any(x == y for y in it) for x in needle)


def test_modified_round_robin_preserves_source_order():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        costs = [float(rng.uniform(0, 3)) for _ in range(n)]
        lists = []
        for _ in range(int(rng.integers(1, 4))):
            perm = list(rng.permutation(n))
            lists.append(perm[:int(rng.integers(1, n + 1))])
        out = modified_round_robin(lists, costs)
        assert sorted(out) == sorted(set().union(*map(set, lists)))
        assert len(set(out)) == len(out)
        # Every source list survives as an ordered subsequence of the raw
        # merge, so first contributions keep their list's relative order.
        raw = modified_round_robin(lists, costs, dedup=False)
        for lst in lists:
            assert _is_subsequence(lst, raw)


def test_nonadaptive_kofn_permutation_examples():
    inst = make_instance([1, 1, 1], [(0.9, 0.1), (0.5, 0.5), (0.1, 0.9)])
    assert kofn_permutation_for(inst, range(3), 1) == [0, 2, 1]
    assert kofn_permutation_for(inst, [1], 1) == [1]
    flat = make_instance([3, 1, 2], [(0.5, 0.5)] * 3)
    assert kofn_permutation_for(flat, range(3), 1) == [1, 2, 0]


def test_cheapest_first_permutation_examples():
    # Phase 1 and the naive strategy test by increasing (cost, index).
    inst = make_instance([3, 1, 2], [(0.5, 0.5)] * 3)
    strat = make_strategy("naive_abs", inst)
    assert strat._cost_order == [1, 2, 0]
    assert strat.next_test((P1, 0b101, (1, 0), 2)) == 2
    assert naive_cheapest(inst, (1, 2, 1), "abs").tested_voters() == [1, 2, 0]
    ties = uniform_instance(3, 2)
    assert make_strategy("naive_abs", ties)._cost_order == [0, 1, 2]


def _walk_kofn(inst, perm, target, k, x):
    """Cost of walking a fixed order until the k-of-n question is decided."""
    z = len(perm) - k + 1
    cost = 0.0
    for v in perm:
        cost += inst.costs[v]
        if x[v] == target:
            k -= 1
            if k == 0:
                return cost, True
        else:
            z -= 1
            if z == 0:
                return cost, False
    raise AssertionError("walk ended undecided")


def _verification_cost(inst, target, k, x):
    """Cost of the one-sided verifier for the true value of the question."""
    n = inst.n
    z = n - k + 1
    ones = sum(1 for v in x if v == target)
    if ones >= k:
        cost, need = 0.0, k
        for v in support_order(inst, target):
            cost += inst.costs[v]
            if x[v] == target:
                need -= 1
                if need == 0:
                    return cost
    cost, need = 0.0, z
    for v in refutation_order(inst, target):
        cost += inst.costs[v]
        if x[v] != target:
            need -= 1
            if need == 0:
                return cost
    raise AssertionError("unreachable")


@pytest.mark.parametrize("seed", range(8))
def test_kofn_permutation_two_approximates_per_realization(seed):
    inst = random_instance(int(np.random.default_rng(seed).integers(2, 8)), 2,
                           seed + 50)
    n = inst.n
    k = n // 2 + 1
    perm = kofn_permutation_for(inst, range(n), 1)
    for x in all_realizations(n, 2):
        walk, _ = _walk_kofn(inst, perm, 1, k, x)
        assert walk <= 2.0 * _verification_cost(inst, 1, k, x) + 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_kofn_permutation_expected_cost_within_twice_sbb(seed):
    rng = np.random.default_rng(seed + 1)
    n = int(rng.integers(2, 8))
    inst = random_instance(n, 2, seed + 500)
    k = n // 2 + 1
    perm = kofn_permutation_for(inst, range(n), 1)
    walk_exp = 0.0
    for x in all_realizations(n, 2):
        cost, _ = _walk_kofn(inst, perm, 1, k, x)
        walk_exp += realization_prob(inst, x) * cost
    sbb_exp = _sbb_question_cost(inst, 1, k)
    assert walk_exp <= 2.0 * sbb_exp + 1e-9
