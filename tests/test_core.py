import itertools
import json

import numpy as np
import pytest

from conftest import (all_partials, brute_certificate, brute_winnable,
                      extensions, make_instance, partial_from)
from quickcount.core import (CERTIFICATES, CERTIFIED_ARRAYS, Instance,
                             InstanceError, PartialAssignment, abs_certificate,
                             abs_majority, phase1_stop_array,
                             phase1_stop_from_tallies, possible_toppers,
                             rel_certificate, rel_majority, viable_candidates)


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
    assert abs_certificate(partial_from((1, 1, 1, None, None), 3)) == 1
    assert abs_certificate(partial_from((None,) * 4, 2)) is None
    assert abs_certificate(partial_from((1, 2, 1, 2), 2)) == 0


def test_rel_certificate_examples():
    assert rel_certificate(partial_from((1, 1, 1, None, None), 3)) == 1
    assert rel_certificate(partial_from((1, 2, 1, 2), 2)) == 0
    assert rel_certificate(partial_from((1, 1, 2, None), 2)) is None


def test_viable_candidates_examples():
    b = partial_from((1, 1, 2, None, None), 3)
    assert viable_candidates(b, "abs") == {1, 2}
    assert viable_candidates(b, "rel") == {1, 2}
    empty = partial_from((None,) * 4, 3)
    assert viable_candidates(empty, "abs") == {1, 2, 3}
    assert viable_candidates(empty, "rel") == {1, 2, 3}


@pytest.mark.parametrize("objective", ["abs", "rel"])
@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2),
                                 (6, 2), (3, 3), (4, 3), (5, 3), (6, 3)])
def test_certificates_sound_and_complete(n, d, objective):
    from quickcount.core import certificate
    for entries in all_partials(n, d):
        b = partial_from(entries, d)
        got = certificate(b, objective)
        want = brute_certificate(entries, d, objective)
        assert got == want, (entries, objective)


@pytest.mark.parametrize("objective", ["abs", "rel"])
def test_certificates_on_full_assignments_match_majority(objective):
    from quickcount.core import certificate
    fn = abs_majority if objective == "abs" else rel_majority
    for entries in all_partials(4, 3):
        if None in entries:
            continue
        b = partial_from(entries, 3)
        assert certificate(b, objective) == fn(entries, 3)


def test_certificate_monotone_under_extension():
    for entries in all_partials(4, 2):
        b = partial_from(entries, 2)
        for objective, cert in (("abs", abs_certificate(b)),
                                ("rel", rel_certificate(b))):
            if cert is None:
                continue
            for x in extensions(entries, 2):
                # Any way of revealing one more vote keeps the certificate.
                for i, v in enumerate(entries):
                    if v is not None:
                        continue
                    one_more = list(entries)
                    one_more[i] = x[i]
                    b2 = partial_from(one_more, 2)
                    got = (abs_certificate(b2) if objective == "abs"
                           else rel_certificate(b2))
                    assert got == cert


@pytest.mark.parametrize("objective", ["abs", "rel"])
@pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (6, 2), (4, 3), (5, 3)])
def test_viability_soundness_exhaustive(n, d, objective):
    for entries in all_partials(n, d):
        b = partial_from(entries, d)
        winnable = brute_winnable(entries, d, objective)
        assert winnable <= viable_candidates(b, objective), entries
        if objective == "abs":
            # For the majority-threshold rule viability is exact.
            assert winnable == viable_candidates(b, objective)


def test_rel_zero_certificate_needs_full_inspection():
    for entries in all_partials(5, 2):
        b = partial_from(entries, 2)
        if rel_certificate(b) == 0:
            assert b.is_full()


def test_possible_toppers_includes_tie_reachers():
    # Candidate 3 cannot win but can still tie for the lead.
    b = partial_from((1, 1, 2, None, None), 3)
    assert possible_toppers(b) == {1, 2, 3}
    assert viable_candidates(b, "rel") == {1, 2}


def test_possible_toppers_characterizes_reaching_the_top():
    from quickcount.core import _tallies_of
    for entries in all_partials(5, 3):
        b = partial_from(entries, 3)
        tops = set()
        for x in extensions(entries, 3):
            tallies = _tallies_of(x, 3)
            best = max(tallies)
            tops |= {j for j in (1, 2, 3) if tallies[j - 1] == best}
        assert possible_toppers(b) == tops, entries


def test_partial_assignment_tallies_and_audit():
    b = PartialAssignment.empty(4, 3)
    assert b.unknown_count == 4 and b.tallies == [0, 0, 0]
    b.reveal(2, 3)
    b.reveal(0, 3)
    assert b.tallies == [0, 0, 2] and b.unknown_count == 2
    assert b.audit_tallies()
    with pytest.raises(ValueError):
        b.reveal(2, 1)
    with pytest.raises(ValueError):
        b.reveal(1, 4)
    assert sum(b.tallies) + b.unknown_count == b.n


def test_partial_assignment_copy_is_independent():
    b = PartialAssignment.empty(3, 2)
    c = b.copy()
    c.reveal(0, 1)
    assert b.entries == [None, None, None]
    assert c.entries == [1, None, None]


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
