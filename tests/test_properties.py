"""Property tests over small random instances and realizations.

Every strategy, including the four that share Strategy's Phase 1, must
return the true winner, stop testing exactly when a certificate appears,
and serialize its transcript losslessly; phase1_trace must advance one
reveal at a time along the strategies' own Phase 1.  Every state of every
strategy, OptimalStrategy included, leads with the oracle's (mask,
tallies), and every exact cost equals the sum over all realizations.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (brute_certificate, every_strategy, make_instance,
                      phase1_trace, state_of, sweep_cost)
from quickcount.core import CERTIFICATES, abs_majority, rel_majority
from quickcount.oracle import exact_strategy_cost
from quickcount.strategies import (P1, STRATEGIES, Transcript, make_strategy,
                                   run_strategy)

COSTS = st.one_of(st.sampled_from([0.0, 1.0, 2.0]),
                  st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False))


@st.composite
def cases(draw):
    """(instance, realization) with n <= 5 voters and d <= 3 candidates."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(2, 3))
    costs = draw(st.lists(COSTS, min_size=n, max_size=n))
    rows = []
    for _ in range(n):
        weights = draw(st.lists(st.integers(1, 9), min_size=d, max_size=d))
        rows.append([w / sum(weights) for w in weights])
    x = tuple(draw(st.lists(st.integers(1, d), min_size=n, max_size=n)))
    return make_instance(costs, rows), x


@settings(max_examples=200, deadline=None)
@given(cases())
def test_every_strategy_is_correct_minimal_and_serializable(case):
    inst, x = case
    for name in STRATEGIES:
        strat = make_strategy(name, inst)
        t = run_strategy(strat, x)
        truth = abs_majority(x, inst.d) if strat.objective == "abs" else rel_majority(x, inst.d)
        assert t.result == truth, name
        entries = [None] * inst.n
        for step in t.steps:
            cert = CERTIFICATES[strat.objective](*state_of(entries, inst.d))
            assert cert is None, (name, step)
            entries[step.voter] = step.value
        assert brute_certificate(tuple(entries), inst.d, strat.objective) == t.result, name
        assert Transcript.from_json(t.to_json()) == t, name


@settings(max_examples=200, deadline=None)
@given(cases())
def test_phase1_trace_reveals_one_vote_per_snapshot(case):
    inst, x = case
    for objective, algo in (("abs", "abs4"), ("rel", "rel8")):
        strat = make_strategy(algo, inst)
        trace = phase1_trace(inst, x, objective)
        assert trace[0] == strat.initial_state()
        assert all(state[0] == P1 for state in trace[:-1])
        revealed = []
        for prev, cur in zip(trace, trace[1:]):
            cleared = prev[1] & ~cur[1]
            assert cur[1] | cleared == prev[1] and cleared.bit_count() == 1
            v = cleared.bit_length() - 1
            tallies = list(prev[2])
            tallies[x[v] - 1] += 1
            assert cur[2] == tuple(tallies) and cur[3] == prev[3] - 1
            assert cur == strat.advance(prev, v, x[v])
            revealed.append(v)
        steps = run_strategy(strat, x).tested_voters()
        assert steps[:len(revealed)] == revealed


@settings(max_examples=200, deadline=None)
@given(cases())
def test_every_state_is_the_oracle_state(case):
    inst, x = case
    for strat in every_strategy(inst):
        state = strat.initial_state()
        mask, tallies = (1 << inst.n) - 1, [0] * inst.d
        while True:
            hash(state)
            assert state[1] == mask, strat.name
            assert state[2] == tuple(tallies), strat.name
            assert state[3] == mask.bit_count(), strat.name
            voter = strat.next_test(state)
            if voter is None:
                break
            mask ^= 1 << voter
            tallies[x[voter] - 1] += 1
            state = strat.advance(state, voter, x[voter])


@settings(max_examples=60, deadline=None)
@given(cases())
def test_exact_cost_equals_the_sweep_for_every_strategy(case):
    inst, _ = case
    for strat in every_strategy(inst):
        swept = sweep_cost(lambda x: run_strategy(strat, x), inst)
        assert exact_strategy_cost(strat) == pytest.approx(swept, abs=1e-12), strat.name
