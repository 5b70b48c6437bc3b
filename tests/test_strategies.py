import hashlib
import itertools
import json

import numpy as np
import pytest

from conftest import (all_realizations, distances, every_strategy,
                      kofn_permutation, make_instance, phase1_trace,
                      random_instance, reachable_states, state_of,
                      uniform_instance)
from quickcount.core import (CERTIFICATES, abs_majority, blocking_threshold,
                             majority_threshold, rel_majority)
from quickcount.dualgreedy import adg_select
from quickcount.kernels import (_sbb_pick, prefix_masks, refutation_order,
                                support_order)
from quickcount.oracle import exact_strategy_cost, monte_carlo_cost
from quickcount.strategies import (KERNEL_A, KERNEL_B, STRATEGIES, Transcript,
                                   _pick_leaders, make_strategy, run_strategy)

SMALL_CASES = [(3, 2, 11), (4, 2, 12), (5, 2, 13), (4, 3, 14), (5, 3, 15)]


def _truth(objective, x, d):
    return abs_majority(x, d) if objective == "abs" else rel_majority(x, d)


def phase1_end(inst, x, objective):
    """State that ends Phase 1, its cost, and the leaders the kernel starts from."""
    end = phase1_trace(inst, x, objective)[-1]
    cost = sum(inst.costs[v] for v in range(inst.n) if not end[1] >> v & 1)
    alpha, beta = _pick_leaders(end[2], end[3], inst.n, objective)
    return end, cost, alpha, beta


def test_phase1_abs_example():
    inst = make_instance([1, 2, 3, 4, 5], [(1 / 3, 1 / 3, 1 / 3)] * 5)
    end, cost, alpha, beta = phase1_end(inst, (1, 2, 3, 1, 1), "abs")
    assert inst.n - end[3] == 4
    assert cost == 10.0
    assert alpha == 1


def test_phase1_d2_tests_nothing():
    inst = random_instance(6, 2, 1)
    for objective in ("abs", "rel"):
        end, cost, alpha, beta = phase1_end(inst, [1] * 6, objective)
        assert cost == 0.0 and end[3] == inst.n
        assert (alpha, beta) == (1, 2)


def test_pick_leaders_orders_by_key_then_index():
    # Reference: abs takes the two smallest capped votes-against counts,
    # rel the two largest tallies, each tie going to the lower index.
    # Small tallies make ties common.
    rng = np.random.default_rng(5)
    for _ in range(500):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(d, 16))
        tallies = tuple(int(t) for t in rng.multinomial(int(rng.integers(0, n + 1)),
                                                        [1 / d] * d))
        unknown = n - sum(tallies)
        blk = blocking_threshold(n)
        against = sorted(range(d), key=lambda j: (min(n - unknown - tallies[j], blk), j))
        ahead = sorted(range(d), key=lambda j: (-tallies[j], j))
        assert _pick_leaders(tallies, unknown, n, "abs") == (against[0] + 1, against[1] + 1)
        assert _pick_leaders(tallies, unknown, n, "rel") == (ahead[0] + 1, ahead[1] + 1)


def test_phase1_stops_on_certificate():
    # Candidate 1 takes the floor(n/2)+1 cheapest votes.
    inst = make_instance([1, 2, 3, 4, 5], [(1 / 3, 1 / 3, 1 / 3)] * 5)
    end, cost, alpha, beta = phase1_end(inst, (1, 1, 1, 2, 3), "abs")
    assert inst.n - end[3] == 3
    assert CERTIFICATES["abs"](end[2], end[3], inst.n) == 1
    assert alpha == 1


def test_abs4_example_runs():
    inst = make_instance([1, 2, 3], [(0.6, 0.4)] * 3)
    t = run_strategy(make_strategy("abs4", inst), (1, 1, 2))
    assert t.tested_voters() == [0, 1]
    assert t.result == 1 and t.cost == 3.0


def test_abs4_no_phase2_after_phase1_certificate():
    inst = make_instance([1, 2, 3, 4, 5], [(1 / 3, 1 / 3, 1 / 3)] * 5)
    t = run_strategy(make_strategy("abs4", inst), (1, 1, 1, 2, 3))
    assert t.result == 1
    assert len(t.phases) == 1  # only the cheapest-first phase ran


def test_abs4_two_voter_tie():
    inst = uniform_instance(2, 2)
    t = run_strategy(make_strategy("abs4", inst), (1, 2))
    assert t.result == 0
    assert len(t.steps) == 2


def test_abs6_one_round_when_decided_in_phase1():
    inst = make_instance([1, 2, 3, 4, 5], [(1 / 3, 1 / 3, 1 / 3)] * 5)
    t = run_strategy(make_strategy("abs6_threeround", inst), (1, 1, 1, 2, 3))
    assert t.result == 1 and len(t.phases) == 1


def test_abs6_round_counts_within_three():
    for seed in range(5):
        inst = random_instance(6, 3, seed + 60)
        for x in itertools.islice(all_realizations(6, 3), 0, 729, 17):
            t = run_strategy(make_strategy("abs6_threeround", inst), x)
            assert len(t.phases) <= 3
            assert t.result == abs_majority(x, 3)


def _abs4_walk_rounds(inst, x, voters):
    """abs4's kernel on realization x with each SBB run replaced by a walk
    along kofn_permutation_for, checked against the tests actually made.

    Returns the number of Phase 1 tests, the start of each kernel round
    that tests something, where the last round ends, and the outcome.
    Each round walks a prefix of the permutation over the voters untested
    at its start and ends exactly when abs4's rule for its target fires
    (k <= 0 or z <= 0).
    """
    n = inst.n
    maj, blk = majority_threshold(n), blocking_threshold(n)
    state, _, alpha, beta = phase1_end(inst, x, "abs")
    p1 = end = n - state[3]
    assert voters[:p1] == [v for v in voters if not state[1] >> v & 1]
    cert = CERTIFICATES["abs"](state[2], state[3], n)
    if cert is not None:
        return p1, [], end, cert

    def needs(tests, target):
        yes = sum(x[v] == target for v in voters[:tests])
        return maj - yes, blk - (tests - yes)

    starts = []
    for target in (alpha, beta):
        start = end
        while end < len(voters) and min(needs(end, target)) > 0:
            end += 1
        k, z = needs(end, target)
        assert k <= 0 or z <= 0
        if end > start:
            starts.append(start)
            untested = [v for v in range(n) if v not in voters[:start]]
            perm = kofn_permutation(inst, untested, target)
            assert voters[start:end] == perm[:end - start]
        if k <= 0:
            return p1, starts, end, target
    return p1, starts, end, 0


def test_abs6_rounds_walk_abs4_rule():
    # abs6_threeround is abs4 with each SBB run replaced by a walk; its
    # kernel rounds are read from the transcript's phase marks.
    beta_rounds = 0
    for n, seed in [(5, 81), (6, 82), (8, 83)]:
        inst = random_instance(n, 3, seed)
        for x in all_realizations(n, 3):
            t = run_strategy(make_strategy("abs6_threeround", inst), x)
            voters = t.tested_voters()
            p1, starts, end, result = _abs4_walk_rounds(inst, x, voters)
            assert list(t.phases) == [0] * (p1 > 0) + starts
            assert end == len(voters) and t.result == result
            beta_rounds += len(starts) == 2
    # Some run verifies beta after alpha is refuted.
    assert beta_rounds


def test_abs10_round_counts_within_two():
    for seed in range(5):
        inst = random_instance(6, 3, seed + 70)
        for x in itertools.islice(all_realizations(6, 3), 0, 729, 17):
            t = run_strategy(make_strategy("abs10_tworound", inst), x)
            assert len(t.phases) <= 2
            assert t.result == abs_majority(x, 3)


def test_abs10_d2_walk_example():
    inst = make_instance([1, 1, 1], [(0.9, 0.1), (0.5, 0.5), (0.1, 0.9)])
    t = run_strategy(make_strategy("abs10_tworound", inst), (1, 1, 2))
    # Phase 1 is empty for d=2; the walk follows the four-order round-robin
    # [v0, v2, v1] and stops at the certificate.
    assert t.tested_voters()[:2] == [0, 2]
    assert t.result == abs_majority((1, 1, 2), 2)


def test_rel8_two_voters_must_inspect_both():
    inst = uniform_instance(2, 2)
    t = run_strategy(make_strategy("rel8", inst), (1, 1))
    assert t.result == 1 and len(t.steps) == 2


def test_rel8_zero_phase2_after_strict_majority_in_phase1():
    inst = make_instance([1, 2, 3, 4, 5], [(1 / 3, 1 / 3, 1 / 3)] * 5)
    t = run_strategy(make_strategy("rel8", inst), (1, 1, 1, 2, 3))
    assert t.result == 1
    assert len(t.phases) == 1


def test_naive_full_tie_inspects_everything():
    inst = uniform_instance(4, 2)
    t = run_strategy(make_strategy("naive_rel", inst), (1, 2, 1, 2))
    assert t.result == 0 and len(t.steps) == 4


def test_naive_stops_exactly_at_certificate():
    inst = make_instance([1, 2, 3, 4, 5], [(0.5, 0.5)] * 5)
    t = run_strategy(make_strategy("naive_abs", inst), (1, 1, 1, 2, 2))
    assert len(t.steps) == 3 and t.result == 1


@pytest.mark.parametrize("n,d,seed", SMALL_CASES)
def test_all_strategies_exhaustively_correct(n, d, seed):
    inst = random_instance(n, d, seed)
    strategies = {name: make_strategy(name, inst) for name in STRATEGIES}
    for x in all_realizations(n, d):
        for name, strat in strategies.items():
            t = run_strategy(strat, x)
            assert t.result == _truth(strat.objective, x, d), (name, x)


@pytest.mark.parametrize("n,d,seed", SMALL_CASES[:3] + [(4, 3, 44)])
def test_no_tests_past_a_certificate(n, d, seed):
    inst = random_instance(n, d, seed)
    for name in STRATEGIES:
        strat = make_strategy(name, inst)
        for x in all_realizations(n, d):
            t = run_strategy(strat, x)
            entries = [None] * n
            for step in t.steps[:-1] if t.steps else []:
                entries[step.voter] = step.value
                cert = CERTIFICATES[strat.objective](*state_of(entries, d))
                assert cert is None, (name, x)


def test_transcript_json_round_trip_uses_one_based_voters():
    inst = make_instance([1, 2, 3], [(0.6, 0.4)] * 3)
    t = run_strategy(make_strategy("abs4", inst), (1, 1, 2))
    obj = json.loads(t.to_json())
    assert obj["steps"][0]["voter"] == 1  # voter 0 serialized as 1
    assert obj["result"] == 1
    assert Transcript.from_json(t.to_json()) == t


def test_transcript_phase_marks_match_phase1_prefix():
    inst = random_instance(7, 3, 5)
    for x in [(1, 2, 3, 1, 2, 3, 1), (2, 2, 1, 3, 3, 1, 2)]:
        t = run_strategy(make_strategy("abs4", inst), x)
        end, cost, alpha, beta = phase1_end(inst, x, "abs")
        k = inst.n - end[3]
        assert [s.voter for s in t.steps[:k]] == [
            v for v in sorted(range(7), key=lambda u: (inst.costs[u], u))][:k]
        if len(t.phases) > 1:
            assert t.phases[1] == k


def test_phase1_trace_covers_every_intermediate_state():
    inst = random_instance(7, 3, 9)
    x = (1, 2, 3, 1, 2, 3, 1)
    trace = phase1_trace(inst, x, "abs")
    assert trace[0][3] == inst.n
    for prev, cur in zip(trace, trace[1:]):
        assert cur[3] == prev[3] - 1


@pytest.mark.parametrize("objective", ["abs", "rel"])
def test_phase1_remaining_test_bounds(objective):
    # From any intermediate state, the number of further cheapest-first
    # tests is bounded by the two relevant goal distances.
    for seed in range(8):
        inst = random_instance(7, 3, seed + 80)
        rng = np.random.default_rng(seed)
        for _ in range(12):
            x = tuple(int(rng.integers(1, 4)) for _ in range(7))
            trace = phase1_trace(inst, x, objective)
            total = len(trace) - 1
            for step, state in enumerate(trace):
                remaining = total - step
                prof = distances(state[2], state[3], inst.n, objective)
                if objective == "abs":
                    m = sorted(prof.m, reverse=True)
                    assert remaining <= m[1] + m[2], (seed, x, step)
                else:
                    j_star = min(range(1, 4), key=lambda j: (prof.M[j - 1], j))
                    rest = sorted((prof.pairs[(j_star, k)] for k in (1, 2, 3)
                                   if k != j_star), reverse=True)
                    assert remaining <= rest[0] + rest[1], (seed, x, step)


def test_optimal_needs_at_least_second_distance_from_phase1_states():
    # Worst-case remaining tests of the DP-optimal strategy from any state
    # on a cheapest-first prefix is at least the second-largest distance.
    from quickcount.oracle import _Oracle

    def opt_worst_remaining(inst, tallies, mask):
        oracle = _Oracle(inst, "abs")
        from quickcount.core import abs_certificate_from_tallies

        def walk(mask, tallies):
            if abs_certificate_from_tallies(tallies, mask.bit_count(), inst.n) is not None:
                return 0
            bit = 1 << oracle.best_test(mask, tallies)[1]
            tl = list(tallies)
            depths = []
            for j in range(inst.d):
                tl[j] += 1
                depths.append(walk(mask ^ bit, tuple(tl)))
                tl[j] -= 1
            return 1 + max(depths)

        return walk(mask, tallies)

    for seed in range(4):
        inst = random_instance(5, 3, seed + 200)
        rng = np.random.default_rng(seed)
        x = tuple(int(rng.integers(1, 4)) for _ in range(5))
        for state in phase1_trace(inst, x, "abs"):
            prof = distances(state[2], state[3], inst.n, "abs")
            m2 = sorted(prof.m, reverse=True)[1]
            worst = opt_worst_remaining(inst, state[2], state[1])
            assert worst >= m2, (seed, x, state)


def test_adg_abs_strategy_is_correct_and_od_bounded():
    from quickcount.oracle import exact_strategy_cost, optimal_expected_cost
    for seed in range(4):
        inst = random_instance(4, 3, seed + 300)
        strat = make_strategy("adg_abs", inst)
        for x in all_realizations(4, 3):
            assert run_strategy(strat, x).result == abs_majority(x, 3)
        cost = exact_strategy_cost(strat)
        opt = optimal_expected_cost(inst, "abs")
        assert cost <= (2 * 3 - 1) * opt + 1e-9


def test_make_strategy_rejects_unknown_names():
    inst = uniform_instance(3, 2)
    with pytest.raises(ValueError, match="unknown strategy"):
        make_strategy("nope", inst)


def test_run_strategy_validates_realization():
    inst = uniform_instance(3, 2)
    with pytest.raises(ValueError):
        run_strategy(make_strategy("abs4", inst), (1, 1))
    with pytest.raises(ValueError):
        run_strategy(make_strategy("abs4", inst), (1, 1, 3))


@pytest.mark.parametrize("name", ["rel8", "adg_abs"])
def test_one_adg_select_per_dual_greedy_step(monkeypatch, name):
    # Each dual-greedy state selects once, when it settles; next_test and
    # advance only read the stored choice.  Every undecided adg_abs state,
    # and rel8's threshold kernel, carry the KERNEL_A tag.
    import quickcount.strategies as strategies
    calls = []

    def counting(*args):
        calls.append(1)
        return adg_select(*args)

    monkeypatch.setattr(strategies, "adg_select", counting)
    inst = random_instance(5, 3, 16)
    adg_steps = 0
    for x in all_realizations(inst.n, inst.d):
        strat = make_strategy(name, inst)
        calls.clear()
        state = strat.initial_state()
        steps = 0
        while (voter := strat.next_test(state)) is not None:
            if state[0] == KERNEL_A:
                steps += 1
            state = strat.advance(state, voter, x[voter])
        assert len(calls) == steps, x
        adg_steps += steps
    assert adg_steps > 0


def _memo_runs():
    """(instance, evaluate) pairs: every state exact evaluation reaches on
    random n 5-8, d 2-4, and the states Monte Carlo reaches on random (30,4)."""
    runs = [(random_instance(n, d, 10 * n + d), exact_strategy_cost)
            for n in range(5, 9) for d in range(2, 5)]
    runs.append((random_instance(30, 4, 31), lambda s: monte_carlo_cost(s, 400, 4)))
    return runs


def test_abs4_sbb_memo_cannot_go_stale(monkeypatch):
    # abs4 memoizes each SBB pick on (mask, target, k), leaving the tallies
    # out of the key.  Every kernel state's pick must equal a direct
    # _sbb_pick from freshly sorted orders, and _sbb_pick must run once per
    # distinct key.
    import quickcount.strategies as strategies
    picks = []

    def counting(*args):
        picks.append(1)
        return _sbb_pick(*args)

    monkeypatch.setattr(strategies, "_sbb_pick", counting)
    asked = shared = 0
    for inst, evaluate in _memo_runs():
        n = inst.n
        maj, blk = majority_threshold(n), blocking_threshold(n)
        strat = make_strategy("abs4", inst)
        tests = []
        next_test = strat.next_test

        def recording(state):
            voter = next_test(state)
            tests.append((state, voter))
            return voter

        strat.next_test = recording
        picks.clear()
        evaluate(strat)
        keys = set()
        for state, voter in tests:
            if state[0] not in (KERNEL_A, KERNEL_B):
                continue
            target = state[4] if state[0] == KERNEL_A else state[5]
            k = maj - state[2][target - 1]
            z = blk - (n - state[3] - state[2][target - 1])
            keys.add((state[1], target, k))
            asked += 1
            assert voter == _sbb_pick(k, z, prefix_masks(support_order(inst, target)),
                                      prefix_masks(refutation_order(inst, target)),
                                      state[1])
        assert len(picks) == len(keys)
        shared += asked - len(keys)
    assert shared > 0


def test_rel8_selection_memo_cannot_go_stale(monkeypatch):
    # rel8 memoizes each dual-greedy selection on (mask, alpha, beta,
    # items, counts, theta) and the charges, leaving the tallies and the
    # unknown count out of the key.  Every settle must return what a fresh
    # strategy, with an empty memo, selects on the same inputs, and
    # adg_select must run once per distinct key.
    import quickcount.strategies as strategies
    calls = []

    def counting(*args):
        calls.append(1)
        return adg_select(*args)

    monkeypatch.setattr(strategies, "adg_select", counting)
    narrower = 0
    for inst, evaluate in _memo_runs():
        strat = make_strategy("rel8", inst)
        settles = []
        settle = strat._settle_adg

        def recording(pre, charges):
            state = settle(pre, charges)
            settles.append((pre, charges, state))
            return state

        strat._settle_adg = recording
        calls.clear()
        evaluate(strat)
        selections = len(calls)
        keys = {((pre[1],) + pre[4:], charges) for pre, charges, _ in settles}
        assert selections == len(keys)
        narrower += len({(pre, charges) for pre, charges, _ in settles}) - len(keys)
        for pre, charges, state in settles:
            assert state == make_strategy("rel8", inst)._settle_adg(pre, charges)
    assert narrower > 0


def _transitions_digest(n, d):
    """sha256 over two random instances of every strategy's sorted reachable
    state reprs and its exact expected cost, in every_strategy order."""
    digest = hashlib.sha256()
    for seed in (11 * n + d, 11 * n + d + 500):
        for strat in every_strategy(random_instance(n, d, seed)):
            digest.update(strat.name.encode())
            for text in sorted(repr(state) for state in reachable_states(strat)):
                digest.update(text.encode())
            digest.update(exact_strategy_cost(strat).hex().encode())
    return digest.hexdigest()


_TRANSITION_DIGESTS = {
    (3, 2): "8fa13e71f50aa60eae5f4a97347988464d32ebfc22d2e9c2f4a785a8ab53614c",
    (3, 3): "933c2657c7ef88c83889287b3602c79ebf5736c0c999c9981d5a14906d9a4ff3",
    (3, 4): "a35070ac7e09181ffd8cfc77e557175d387f7c2b0da85a3bbcd8a3cdbeaa977b",
    (4, 2): "ca5b29400db9ba22be66e7bdefaf446a291428b4e1f00e027b2b9905f0f15939",
    (4, 3): "aff72259b0e664bf3e235b1719d8a3ba04a1aab230857617316aa4e075cc54df",
    (4, 4): "d188ba9020e4f4d209d0f6656199e74e897e4f13e0630278e03350b3f16d0e65",
    (5, 2): "f84b00c1a9819c34dedc57ee5bf3935ea0148ba6212a1d0d84d73a733bb8e394",
    (5, 3): "fbc1fec0877fc94192893ac4a3c51c097e63672a783b6bf359e4c41e4542f991",
    (5, 4): "117c746d744d14a5c469fedac4bd89aa90de69aa4814757934c2a7c7b413ca7b",
    (6, 2): "107efae5143bc20bcb6de0cb92beb32ccda56ca0d4132c15ffb19a612fcb3fa6",
    (6, 3): "2b45b058437b54cbf40912cf5d74ecf7fe2fb14a04a96f49c2a998b164d3e7c2",
    (6, 4): "764abf737ed1fa97bf53617c045f0b78950662b34301d1b984a5a7c805fb7955",
    (7, 2): "14b5a40ebf7eb063356404c65b344bfc359c990eb6f8c62dcdb696ca4a08f5d7",
    (7, 3): "9e427b3f379959ec91864cc3894003f8e8b5a38b4b1fe3500555cf48360ed76b",
    (7, 4): "5101edb1a8ea86ab2614e68ea93b330c24a0b2562393eeb853101cbc93590599",
    (8, 2): "52c45bc24a0fbaaf2348fe7d21d8cf6cce93d10a3be0cc75766505974380fbea",
    (8, 3): "1f56866b2568c27a37f8e0812574f245d8a6caff79ead44a177952bd59a5ac58",
    (8, 4): "5a4872990c56233d42bf7639ddd0f51083adcf87e2905240e714af58b00a3137",
}


@pytest.mark.parametrize("n, d", sorted(_TRANSITION_DIGESTS))
def test_every_reachable_state_and_cost_is_pinned(n, d):
    # Pins whole state tuples, kernel slots and terminal outcomes included,
    # and every exact cost to the bit, for every registered strategy and
    # the oracle's own strategy for both objectives.
    assert _transitions_digest(n, d) == _TRANSITION_DIGESTS[n, d]
