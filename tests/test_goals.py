import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (all_partials, brute_certificate, distances, extensions,
                      g_pair, marginal_gain, state_of, uniform_instance)
from quickcount.core import CERTIFICATES
from quickcount.goals import (GoalFunction, abs_majority_goal, and_combine,
                              g_against, g_for, or_combine,
                              ternary_threshold_goal)


def test_g_for_examples():
    g = g_for(1, 5)
    assert g.evaluate((1, 2, 1, None, None)) == 2 and g.goal == 3
    assert g.evaluate((None,) * 5) == 0
    g3 = g_for(1, 3)
    assert g3.evaluate((1, 1, 1)) == 2 == g3.goal


def test_g_against_examples():
    g = g_against(1, 5)
    assert g.evaluate((1, 2, 1, None, None)) == 1 and g.goal == 3
    assert g.evaluate((None,) * 5) == 0
    assert g.evaluate((2, 2, 3, None, None)) == 3 == g.goal


def _const_goal(q, value):
    return GoalFunction(lambda b: value, q)


def test_or_combine_examples():
    combined = or_combine([_const_goal(3, 2), _const_goal(3, 1)])
    assert combined.goal == 9
    assert combined.evaluate(()) == 9 - 1 * 2 == 7
    zeros = or_combine([_const_goal(3, 0), _const_goal(3, 0)])
    assert zeros.evaluate(()) == 0
    hit = or_combine([_const_goal(3, 3), _const_goal(3, 0)])
    assert hit.evaluate(()) == hit.goal


def test_and_combine_examples():
    g = and_combine([g_against(1, 5), g_against(2, 5)])
    assert g.goal == 6
    assert g.evaluate((1, 2, 1, None, None)) == 1 + 2 == 3
    assert g.evaluate((None,) * 5) == 0
    # Every component at its goal sums to Q (a tie blocks both candidates).
    tie = and_combine([g_against(1, 4), g_against(2, 4)])
    assert tie.evaluate((1, 2, 1, 2)) == tie.goal == 4


def test_combinators_reject_empty():
    with pytest.raises(ValueError):
        or_combine([])
    with pytest.raises(ValueError):
        and_combine([])


def test_abs_majority_goal_example():
    inst = uniform_instance(5, 2)
    g = abs_majority_goal(inst)
    assert g.goal == 54
    assert g.evaluate((1, 2, 1, None, None)) == 48
    assert g.evaluate((None,) * 5) == 0
    g3 = abs_majority_goal(uniform_instance(3, 2))
    assert g3.evaluate((1, 1, 2)) == g3.goal


def test_abs_majority_goal_rejects_oversized():
    with pytest.raises(ValueError):
        abs_majority_goal(uniform_instance(65, 2))


def test_g_pair_examples():
    g = g_pair(1, 2, 5)
    assert g.goal == 6
    assert g.evaluate((1, 2, 3, None, None)) == 3
    assert g.evaluate((1, 1, 1, 2, 2)) == 6
    assert g.evaluate((None,) * 5) == 0
    with pytest.raises(ValueError):
        g_pair(2, 2, 5)


def test_g_pair_marginals_are_two_one_zero():
    g = g_pair(1, 2, 6)
    b = (1, 2, 3, None, None, None)
    base = g.evaluate(b)
    assert g.evaluate((1, 2, 3, 1, None, None)) - base == 2
    assert g.evaluate((1, 2, 3, 2, None, None)) - base == 0
    assert g.evaluate((1, 2, 3, 3, None, None)) - base == 1


@pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (6, 2), (5, 3)])
def test_g_pair_cap_iff_guaranteed_ahead(n, d):
    g = g_pair(1, 2, n)
    for entries in all_partials(n, d):
        capped = g.evaluate(entries) == n + 1
        from quickcount.core import _tallies_of
        always_ahead = all(
            _tallies_of(x, d)[0] > _tallies_of(x, d)[1]
            for x in extensions(entries, d))
        assert capped == always_ahead, entries


def test_distances_abs_example():
    prof = distances(*state_of((1, 1, 2, None, None), 3), "abs")
    assert prof.m == (2, 1, 0)


def test_distances_abs_full_assignment_at_most_one_positive():
    for entries in all_partials(5, 3):
        if None in entries:
            continue
        prof = distances(*state_of(entries, 3), "abs")
        assert sum(1 for m in prof.m if m > 0) <= 1


def test_distances_rel_example():
    prof = distances(*state_of((1, 2, 3, None, None), 3), "rel")
    assert prof.pairs[(1, 2)] == 3
    assert prof.M[0] == max(prof.pairs[(1, 2)], prof.pairs[(1, 3)])


def test_ternary_threshold_examples():
    g = ternary_threshold_goal(3, 2)
    assert g.goal == 6
    assert g.evaluate((2, None)) == 4
    assert g.evaluate((None, None)) == 0
    assert g.evaluate((2, 2)) == 6
    with pytest.raises(ValueError):
        ternary_threshold_goal(5, 2)
    with pytest.raises(ValueError):
        ternary_threshold_goal(0, 2)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_ternary_threshold_cap_iff_decided(m):
    for theta in range(1, 2 * m + 1):
        g = ternary_threshold_goal(theta, m)
        for entries in itertools.product((None, 0, 1, 2), repeat=m):
            fills = list(itertools.product(*[(v,) if v is not None else (0, 1, 2)
                                             for v in entries]))
            answers = {sum(x) >= theta for x in fills}
            assert (g.evaluate(entries) == g.goal) == (len(answers) == 1), \
                (theta, entries)


def _ternary_by_or_combine(theta, m):
    """The threshold goal as the OR of its two capped counters."""
    q1, q0 = theta, 2 * m - theta + 1
    hi = GoalFunction(lambda b: min(sum(v for v in b if v is not None), q1), q1)
    lo = GoalFunction(lambda b: min(sum(2 - v for v in b if v is not None), q0), q0)
    return or_combine([hi, lo])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_ternary_threshold_equals_its_or_combine_construction(m):
    # The goal scans each vector once; its ints must equal the two-counter
    # OR on every partial vector, for every theta.
    for theta in range(1, 2 * m + 1):
        g = ternary_threshold_goal(theta, m)
        ref = _ternary_by_or_combine(theta, m)
        assert g.goal == ref.goal
        for entries in itertools.product((None, 0, 1, 2), repeat=m):
            got = g.evaluate(entries)
            assert type(got) is int and got == ref.evaluate(entries), (theta, entries)


@pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3)])
def test_abs_goal_reaches_cap_iff_certificate(n, d):
    g = abs_majority_goal(uniform_instance(n, d))
    for entries in all_partials(n, d):
        cert = CERTIFICATES["abs"](*state_of(entries, d))
        assert (g.evaluate(entries) == g.goal) == (cert is not None)


def _probe_monotone_submodular(goal, values, n, rng, probes):
    """Random nested partial assignments sharing an unreached index."""
    values = list(values)
    for _ in range(probes):
        x = [values[rng.integers(len(values))] for _ in range(n)]
        i = int(rng.integers(n))
        others = [j for j in range(n) if j != i]
        rng.shuffle(others)
        small = int(rng.integers(0, n))
        large = int(rng.integers(small, n))
        inner = [None] * n
        for j in others[:small]:
            inner[j] = x[j]
        outer = [None] * n
        for j in others[:large]:
            outer[j] = x[j]
        v = values[rng.integers(len(values))]
        g_inner, g_outer = goal.evaluate(inner), goal.evaluate(outer)
        assert g_outer >= g_inner  # monotone
        assert marginal_gain(goal, inner, i, v) >= marginal_gain(goal, outer, i, v)


PROBES = 1000  # the acceptance suite reruns these probes at 10**4


def test_goal_algebra_probes(rng):
    n, d = 7, 3
    votes = range(1, d + 1)
    for goal in (g_for(2, n), g_against(1, n),
                 abs_majority_goal(uniform_instance(n, d)), g_pair(1, 3, n)):
        _probe_monotone_submodular(goal, votes, n, rng, PROBES)
    _probe_monotone_submodular(ternary_threshold_goal(4, 5), (0, 1, 2), 5, rng,
                               PROBES)


def test_marginal_gain_agrees_with_scratch_evaluation():
    g = abs_majority_goal(uniform_instance(5, 3))
    b = (1, None, 2, None, 3)
    for i in (1, 3):
        for v in (1, 2, 3):
            probe = list(b)
            probe[i] = v
            assert marginal_gain(g, b, i, v) == g.evaluate(probe) - g.evaluate(b)
    with pytest.raises(ValueError):
        marginal_gain(g, b, 0, 1)


def test_goal_certificate_equivalence_vs_brute(rng):
    # Cross-check against the extension-based certificate oracle too.
    for entries in all_partials(5, 2):
        g = abs_majority_goal(uniform_instance(5, 2))
        want = brute_certificate(entries, 2, "abs") is not None
        assert (g.evaluate(entries) == g.goal) == want


@st.composite
def _goals_and_vectors(draw):
    """A goal the library builds, with a partial vector over its values."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(
        ["for", "against", "pair", "or", "and", "abs_majority", "threshold"]))
    values = list(range(1, d + 1))

    def simple():
        j = draw(st.integers(1, d))
        which = draw(st.sampled_from(["for", "against", "pair"]))
        if which == "for":
            return g_for(j, n)
        if which == "against":
            return g_against(j, n)
        k = draw(st.integers(1, d).filter(lambda k: k != j))
        return g_pair(j, k, n)

    if kind in ("for", "against", "pair"):
        goal = simple()
    elif kind in ("or", "and"):
        parts = [simple() for _ in range(draw(st.integers(1, 3)))]
        goal = (or_combine if kind == "or" else and_combine)(parts)
    elif kind == "abs_majority":
        goal = abs_majority_goal(uniform_instance(n, d))
    else:
        goal = ternary_threshold_goal(draw(st.integers(1, 2 * n)), n)
        values = [0, 1, 2]
    b = draw(st.lists(st.sampled_from([None, *values]), min_size=n, max_size=n))
    return goal, b, draw(st.permutations(b))


@settings(max_examples=300, deadline=None)
@given(_goals_and_vectors())
def test_every_library_goal_is_symmetric(case):
    # GoalFunction's contract, which adg_select's per-value pricing relies on.
    goal, b, shuffled = case
    assert goal.evaluate(shuffled) == goal.evaluate(b), goal.name
