import itertools
import json
import re

import numpy as np
import pytest

from conftest import (all_partials, brute_certificate, brute_winnable,
                      extensions, make_instance, possible_toppers, state_of,
                      uniform_instance, viable_candidates)
from quickcount.core import (CERTIFICATES, CERTIFIED_ARRAYS, Instance,
                             InstanceError, abs_majority, phase1_stop_array,
                             phase1_stop_from_tallies, refuted_array,
                             rel_majority)
from quickcount.oracle import OptimalStrategy, optimal_expected_cost
from quickcount.strategies import Abs4, NaiveCheapest


def test_abs_majority_examples():
    assert abs_majority((1, 1, 2), 2) == 1
    assert abs_majority((1, 2), 2) == 0
    assert abs_majority((3, 3, 3, 1, 2), 3) == 3


def test_rel_majority_examples():
    assert rel_majority((1, 2, 1), 3) == 1
    assert rel_majority((1, 1, 2, 2), 2) == 0
    assert rel_majority((1, 2, 3, 3, 2), 3) == 0


def test_majority_functions_reject_unknowns():
    with pytest.raises(ValueError):
        abs_majority((1, None, 2), 2)
    with pytest.raises(ValueError):
        rel_majority((None,), 2)


def test_abs_certificate_examples():
    assert CERTIFICATES["abs"](*state_of((1, 1, 1, None, None), 3)) == 1
    assert CERTIFICATES["abs"](*state_of((None,) * 4, 2)) is None
    assert CERTIFICATES["abs"](*state_of((1, 2, 1, 2), 2)) == 0


def test_rel_certificate_examples():
    assert CERTIFICATES["rel"](*state_of((1, 1, 1, None, None), 3)) == 1
    assert CERTIFICATES["rel"](*state_of((1, 2, 1, 2), 2)) == 0
    assert CERTIFICATES["rel"](*state_of((1, 1, 2, None), 2)) is None


def test_viable_candidates_examples():
    b = state_of((1, 1, 2, None, None), 3)
    assert viable_candidates(*b, "abs") == {1, 2}
    assert viable_candidates(*b, "rel") == {1, 2}
    empty = state_of((None,) * 4, 3)
    assert viable_candidates(*empty, "abs") == {1, 2, 3}
    assert viable_candidates(*empty, "rel") == {1, 2, 3}


@pytest.mark.parametrize("objective", ["abs", "rel"])
@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2),
                                 (6, 2), (3, 3), (4, 3), (5, 3), (6, 3)])
def test_certificates_sound_and_complete(n, d, objective):
    for entries in all_partials(n, d):
        got = CERTIFICATES[objective](*state_of(entries, d))
        want = brute_certificate(entries, d, objective)
        assert got == want, (entries, objective)


@pytest.mark.parametrize("objective", ["abs", "rel"])
def test_certificates_on_full_assignments_match_majority(objective):
    fn = abs_majority if objective == "abs" else rel_majority
    for entries in all_partials(4, 3):
        if None in entries:
            continue
        assert CERTIFICATES[objective](*state_of(entries, 3)) == fn(entries, 3)


def test_certificate_monotone_under_extension():
    for entries in all_partials(4, 2):
        for objective, rule in CERTIFICATES.items():
            cert = rule(*state_of(entries, 2))
            if cert is None:
                continue
            for x in extensions(entries, 2):
                # Any way of revealing one more vote keeps the certificate.
                for i, v in enumerate(entries):
                    if v is not None:
                        continue
                    one_more = list(entries)
                    one_more[i] = x[i]
                    assert rule(*state_of(one_more, 2)) == cert


@pytest.mark.parametrize("objective", ["abs", "rel"])
@pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (6, 2), (4, 3), (5, 3)])
def test_viability_soundness_exhaustive(n, d, objective):
    for entries in all_partials(n, d):
        viable = viable_candidates(*state_of(entries, d), objective)
        winnable = brute_winnable(entries, d, objective)
        assert winnable <= viable, entries
        if objective == "abs":
            # For the majority-threshold rule viability is exact.
            assert winnable == viable


def test_rel_zero_certificate_needs_full_inspection():
    for entries in all_partials(5, 2):
        tallies, unknown, n = state_of(entries, 2)
        if CERTIFICATES["rel"](tallies, unknown, n) == 0:
            assert unknown == 0


def test_possible_toppers_includes_tie_reachers():
    # Candidate 3 cannot win but can still tie for the lead.
    tallies, unknown, n = state_of((1, 1, 2, None, None), 3)
    assert possible_toppers(tallies, unknown) == {1, 2, 3}
    assert viable_candidates(tallies, unknown, n, "rel") == {1, 2}


def test_possible_toppers_characterizes_reaching_the_top():
    from quickcount.core import _tallies_of
    for entries in all_partials(5, 3):
        tallies, unknown, _ = state_of(entries, 3)
        tops = set()
        for x in extensions(entries, 3):
            final = _tallies_of(x, 3)
            best = max(final)
            tops |= {j for j in (1, 2, 3) if final[j - 1] == best}
        assert possible_toppers(tallies, unknown) == tops, entries


def test_instance_validation_errors_carry_field_paths():
    with pytest.raises(InstanceError, match=r"probs\[1\]\[0\]"):
        make_instance([1, 1], [(0.5, 0.5), (0.0, 1.0)])
    with pytest.raises(InstanceError, match=r"probs\[0\]: row sums"):
        make_instance([1, 1], [(0.5, 0.4), (0.5, 0.5)])
    with pytest.raises(InstanceError, match=r"costs\[1\]"):
        make_instance([1, -2], [(0.5, 0.5), (0.5, 0.5)])
    with pytest.raises(InstanceError, match="d: must be >= 2"):
        Instance(n=1, d=1, costs=(1,), probs=((1.0,),))


def test_instance_rows_normalized_after_validation():
    inst = make_instance([1.0], [(0.5 + 2e-10, 0.5)])
    assert abs(sum(inst.probs[0]) - 1.0) < 1e-15


def test_instance_json_round_trip(tmp_path):
    inst = make_instance([0.5, 2.0], [(0.25, 0.75), (0.6, 0.4)])
    path = tmp_path / "inst.json"
    inst.dump(str(path))
    again = Instance.load(str(path))
    assert again == inst
    obj = json.loads(inst.dumps())
    assert set(obj) == {"n", "d", "costs", "probs"}


def test_instance_load_reports_path_and_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "d": 2, "costs": [1, 1]}')
    with pytest.raises(InstanceError, match="bad.json.*probs"):
        Instance.load(str(path))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("objective", ["abs", "rel"])
def test_phase1_stop_is_at_most_two_in_contention(d, objective):
    # Every tallies vector of every n <= 12: the Phase 1 stop, computed
    # from the third-largest tally, holds exactly where at most two
    # candidates are viable (abs) or possible toppers (rel), counted from
    # their set definitions.
    for n in range(1, 13):
        for t in itertools.product(range(n + 1), repeat=d):
            if sum(t) > n:
                continue
            unknown = n - sum(t)
            contention = (viable_candidates(t, unknown, n, "abs") if objective == "abs"
                          else possible_toppers(t, unknown))
            assert (phase1_stop_from_tallies(t, unknown, n, objective)
                    == (len(contention) <= 2)), (n, t)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("objective", ["abs", "rel"])
def test_array_rules_equal_the_scalar_rules(d, objective):
    # Every tallies vector of every n <= 12, with its untested count: the
    # array forms answer exactly the scalar rules' questions, also when the
    # vectors are laid out over two axes with unknown broadcast along one,
    # as the Monte Carlo Phase 1 lays them out.
    for n in range(1, 13):
        vectors = [t for t in itertools.product(range(n + 1), repeat=d)
                   if sum(t) <= n]
        unknown = np.array([n - sum(t) for t in vectors], dtype=np.int32)
        counts = np.array(vectors, dtype=np.int32).T
        certified = [CERTIFICATES[objective](t, n - sum(t), n) is not None
                     for t in vectors]
        stop = [phase1_stop_from_tallies(t, n - sum(t), n, objective)
                for t in vectors]
        assert CERTIFIED_ARRAYS[objective](counts, unknown, n).tolist() == certified
        assert phase1_stop_array(counts, unknown, n, objective).tolist() == stop
        # One row per untested count, one column per vector of that count.
        for u in range(n + 1):
            row = np.flatnonzero(unknown == u)
            grid = counts[:, None, row]
            assert (CERTIFIED_ARRAYS[objective](grid, np.array([[u]]), n)[0].tolist()
                    == [certified[i] for i in row])
            assert (phase1_stop_array(grid, np.array([[u]]), n, objective)[0].tolist()
                    == [stop[i] for i in row])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_refuted_array_is_abs4s_round_end(d):
    # Every tallies vector of every n <= 12 with its untested count, and a
    # candidate per vector (0 for none, which nothing refutes): the array
    # rule holds exactly where Abs4's z <= 0 for that candidate, also with
    # the vectors laid out over depths and trials, as the round walk does.
    rng = np.random.default_rng(d)
    for n in range(1, 13):
        strat = Abs4(uniform_instance(n, d))
        vectors = [t for t in itertools.product(range(n + 1), repeat=d)
                   if sum(t) <= n]
        unknown = np.array([n - sum(t) for t in vectors], dtype=np.int32)
        counts = np.array(vectors, dtype=np.int8).T
        for candidate in [np.full(len(vectors), j) for j in range(d + 1)] + [
                rng.integers(0, d + 1, len(vectors))]:
            z_spent = [j > 0 and strat._sbb_needs(t, n - sum(t), j)[1] <= 0
                       for t, j in zip(vectors, candidate.tolist())]
            assert refuted_array(counts, unknown, n, candidate).tolist() == z_spent
            grid = refuted_array(counts[:, None], unknown[None], n, candidate)
            assert grid.tolist() == [z_spent]


# Every function or class that takes an objective from its caller, each
# given "ABS" on a 3-voter, 2-candidate instance.
_GIVEN_ABS = {
    "optimal_expected_cost": lambda inst: optimal_expected_cost(inst, "ABS"),
    "OptimalStrategy": lambda inst: OptimalStrategy(inst, "ABS"),
    "NaiveCheapest": lambda inst: NaiveCheapest(inst, "ABS"),
}


@pytest.mark.parametrize("name", sorted(_GIVEN_ABS))
def test_an_unknown_objective_is_refused_with_one_message(name):
    message = "objective must be one of ('abs', 'rel'), got 'ABS'"
    with pytest.raises(ValueError, match=re.escape(message)):
        _GIVEN_ABS[name](uniform_instance(3, 2))
