"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import time

import numpy as np
import pytest

from conftest import (all_partials, all_realizations, distances, g_pair,
                      kofn_optimal, marginal_gain, phase1_trace,
                      random_instance, state_of, sweep_cost)
from quickcount.bench import GeneratorSpec, generate
from quickcount.core import CERTIFICATES, abs_majority, rel_majority
from quickcount.dualgreedy import adg_ratio_samples
from quickcount.goals import (abs_majority_goal, g_against, g_for,
                              ternary_threshold_goal)
from quickcount.oracle import (exact_strategy_cost, monte_carlo_cost,
                               optimal_expected_cost)
from quickcount.strategies import STRATEGIES, make_strategy, run_strategy

TOL = 1e-9


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"[acceptance] criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


# ----------------------------------------------------------------------
# Shared corpus: >= 200 seeded random instances, n <= 8, d in {2, 3, 4}.

CORPUS_COMBOS = [(n, d) for d in (2, 3, 4) for n in (3, 4, 5, 6, 7, 8)]
PER_COMBO = 12

_opt_cache: dict = {}


@pytest.fixture(scope="module")
def corpus():
    instances = []
    for n, d in CORPUS_COMBOS:
        for i in range(PER_COMBO):
            instances.append(random_instance(n, d, seed=9000 + 100 * d + 10 * n + i))
    assert len(instances) >= 200
    return instances


def _optimum(idx, instance, objective):
    key = (idx, objective)
    if key not in _opt_cache:
        _opt_cache[key] = optimal_expected_cost(instance, objective)
    return _opt_cache[key]


def _worst_ratio(corpus, name):
    worst = 0.0
    strategy_objective = None
    for idx, inst in enumerate(corpus):
        strat = make_strategy(name, inst)
        strategy_objective = strat.objective
        opt = _optimum(idx, inst, strat.objective)
        ratio = exact_strategy_cost(strat) / opt
        worst = max(worst, ratio)
    assert strategy_objective is not None
    return worst


def _sampled_realizations(inst, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(int(rng.integers(1, inst.d + 1)) for _ in range(inst.n))
            for _ in range(count)]


# ----------------------------------------------------------------------


def test_criterion_01_sbb_optimality():
    checked = 0
    worst = 0.0
    for n in (3, 5, 7, 9):
        for i in range(50):
            inst = random_instance(n, 2, seed=40_000 + 10 * n + i)
            strat = make_strategy("abs4", inst)
            gap = abs(exact_strategy_cost(strat)
                      - optimal_expected_cost(inst, "abs"))
            worst = max(worst, gap)
            checked += 1
    ok = checked >= 200 and worst <= TOL
    _report(1, ok, f"{checked} two-candidate instances, max |SBB - OPT| = {worst:.2e}")
    assert ok


def test_criterion_02_four_approx_envelope(corpus):
    worst = _worst_ratio(corpus, "abs4")
    ok = worst <= 4.0 + TOL
    _report(2, ok, f"abs4 worst exact ratio {worst:.4f} <= 4 over {len(corpus)} instances")
    assert ok


def test_criterion_03_six_and_ten_approx_envelopes(corpus):
    worst6 = _worst_ratio(corpus, "abs6_threeround")
    worst10 = _worst_ratio(corpus, "abs10_tworound")
    max_rounds6 = 0
    max_rounds10 = 0
    for idx, inst in enumerate(corpus):
        xs = (list(all_realizations(inst.n, inst.d)) if inst.d ** inst.n <= 300
              else _sampled_realizations(inst, 12, seed=500 + idx))
        s6 = make_strategy("abs6_threeround", inst)
        s10 = make_strategy("abs10_tworound", inst)
        for x in xs:
            max_rounds6 = max(max_rounds6, len(run_strategy(s6, x).phases))
            max_rounds10 = max(max_rounds10, len(run_strategy(s10, x).phases))
    ok = (worst6 <= 6.0 + TOL and worst10 <= 10.0 + TOL
          and max_rounds6 <= 3 and max_rounds10 <= 2)
    _report(3, ok, f"abs6 ratio {worst6:.4f} <= 6 (rounds <= {max_rounds6}), "
                   f"abs10 ratio {worst10:.4f} <= 10 (rounds <= {max_rounds10})")
    assert ok


def test_criterion_04_eight_approx_envelope(corpus):
    worst = _worst_ratio(corpus, "rel8")
    ok = worst <= 8.0 + TOL
    _report(4, ok, f"rel8 worst exact ratio {worst:.4f} <= 8 over {len(corpus)} instances")
    assert ok


def test_criterion_05_cover_ratio_envelopes():
    samples_abs = 0
    worst_abs = 0.0
    ok = True
    for d in (2, 3, 4):
        bound = 2 * d - 1
        for i in range(12):
            n = 3 + (i % 4)
            inst = random_instance(n, d, seed=52_000 + 100 * d + i)
            goal = abs_majority_goal(inst)
            probs = [{j: row[j - 1] for j in range(1, d + 1)}
                     for row in inst.probs]
            for x in _sampled_realizations(inst, 30, seed=53_000 + 100 * d + i):
                for s in adg_ratio_samples(goal, inst.costs, probs, x):
                    samples_abs += 1
                    worst_abs = max(worst_abs, s.ratio / bound)
                    ok = ok and s.numerator <= bound * s.denominator
    samples_ter = 0
    worst_ter = 0.0
    rng = np.random.default_rng(54_001)
    for m in range(1, 9):
        for theta in range(1, 2 * m + 1):
            goal = ternary_threshold_goal(theta, m)
            costs = [float(rng.uniform(0.05, 2.0)) for _ in range(m)]
            p = rng.dirichlet(np.ones(3), size=m)
            probs = [{0: row[0], 1: row[1], 2: row[2]} for row in p]
            for _ in range(15):
                x = [int(rng.integers(0, 3)) for _ in range(m)]
                for s in adg_ratio_samples(goal, costs, probs, x):
                    samples_ter += 1
                    worst_ter = max(worst_ter, s.ratio / 3.0)
                    ok = ok and s.numerator <= 3 * s.denominator
    ok = ok and samples_abs >= 1000 and samples_ter >= 1000
    _report(5, ok, f"{samples_abs} majority-goal samples (worst {worst_abs:.3f}x of 2d-1), "
                   f"{samples_ter} threshold samples (worst {worst_ter:.3f}x of 3)")
    assert ok


def _probe_goal(goal, values, n, rng, probes):
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
        if goal.evaluate(outer) < goal.evaluate(inner):
            return False
        if marginal_gain(goal, inner, i, v) < marginal_gain(goal, outer, i, v):
            return False
    return True


def test_criterion_06_goal_algebra():
    rng = np.random.default_rng(61_234)
    probes = 10_000
    n, d = 8, 3
    votes = range(1, d + 1)
    ok = True
    for goal in (g_for(2, n), g_against(1, n), g_pair(1, 3, n),
                 abs_majority_goal(random_instance(n, d, seed=66))):
        ok = ok and _probe_goal(goal, votes, n, rng, probes)
    ok = ok and _probe_goal(ternary_threshold_goal(5, 6), (0, 1, 2), 6, rng, probes)
    checked = 0
    for nn, dd in [(4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3)]:
        goal = abs_majority_goal(random_instance(nn, dd, seed=67))
        for entries in all_partials(nn, dd):
            cert = CERTIFICATES["abs"](*state_of(entries, dd))
            ok = ok and ((goal.evaluate(entries) == goal.goal) == (cert is not None))
            checked += 1
    _report(6, ok, f"5 constructions x {probes} probes, certificate "
                   f"equivalence on {checked} partial assignments")
    assert ok


def test_criterion_07_phase1_facts(corpus):
    checked = 0
    ok = True
    for idx, inst in enumerate(corpus):
        if inst.d == 2:
            continue  # phase 1 never tests with two candidates
        for x in _sampled_realizations(inst, 8, seed=70_000 + idx):
            for objective in ("abs", "rel"):
                trace = phase1_trace(inst, x, objective)
                total = len(trace) - 1
                for step, state in enumerate(trace):
                    remaining = total - step
                    prof = distances(state[2], state[3], inst.n, objective)
                    if objective == "abs":
                        m = sorted(prof.m, reverse=True)
                        ok = ok and remaining <= m[1] + m[2]
                    else:
                        cands = range(1, inst.d + 1)
                        j_star = min(cands, key=lambda j: (prof.M[j - 1], j))
                        rest = sorted((prof.pairs[(j_star, k)] for k in cands
                                       if k != j_star), reverse=True)
                        ok = ok and remaining <= rest[0] + rest[1]
                    checked += 1
    _report(7, ok, f"distance bounds held at {checked} phase-1 states")
    assert ok


def test_criterion_08_strategy_correctness_exhaustive():
    runs = 0
    ok = True
    for n, d in [(3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3), (5, 3), (6, 3)]:
        for seed in (0, 1):
            inst = random_instance(n, d, seed=80_000 + 100 * n + 10 * d + seed)
            strategies = {name: make_strategy(name, inst) for name in STRATEGIES}
            for x in all_realizations(n, d):
                for name, strat in strategies.items():
                    t = run_strategy(strat, x)
                    truth = (abs_majority(x, d) if strat.objective == "abs"
                             else rel_majority(x, d))
                    ok = ok and t.result == truth
                    entries = [None] * n
                    for step in t.steps[:-1]:
                        entries[step.voter] = step.value
                        cert = CERTIFICATES[strat.objective](*state_of(entries, d))
                        ok = ok and cert is None
                    runs += 1
    _report(8, ok, f"{runs} exhaustive runs matched the majority functions "
                   f"with no test past a certificate")
    assert ok


def test_criterion_09_adversarial_separation():
    # Two candidates and odd n make absolute majority a 51-of-101 question,
    # on which abs4 is the SBB strategy and so exactly optimal (criterion 1):
    # its mean must land on the optimum, while cheapest-first pays about n/2.
    start = time.perf_counter()
    inst = generate(GeneratorSpec(kind="adversarial", n=101, d=2, epsilon=0.001))
    naive = monte_carlo_cost(make_strategy("naive_abs", inst), 100_000, seed=901)
    smart = monte_carlo_cost(make_strategy("abs4", inst), 100_000, seed=902)
    elapsed = time.perf_counter() - start
    opt = kofn_optimal(inst.costs, [row[0] for row in inst.probs], k=51)
    gap = abs(smart.mean - opt) / smart.stderr
    ok = naive.mean >= 45.0 and gap <= 4.0 and elapsed < 60.0
    _report(9, ok, f"naive mean {naive.mean:.2f} (>= 45), abs4 mean "
                   f"{smart.mean:.3f} +- {smart.stderr:.3f} vs OPT {opt:.5f} "
                   f"({gap:.2f} stderr, <= 4), {elapsed:.1f}s")
    assert naive.mean >= 45.0
    assert elapsed < 60.0
    assert abs(smart.mean - opt) <= 4 * smart.stderr, (
        f"abs4 mean {smart.mean:.4f} +- {smart.stderr:.4f} lies {gap:.2f} "
        f"standard errors from the exact k-of-n optimum {opt:.5f}")


def test_criterion_10_oracle_self_consistency():
    worst_gap = 0.0
    for n, d, seed in [(4, 2, 3), (5, 2, 4), (6, 2, 5), (4, 3, 6), (5, 3, 7),
                       (6, 3, 8)]:
        inst = random_instance(n, d, seed=90_000 + seed)
        for name in ("abs4", "rel8", "naive_abs", "abs10_tworound"):
            strat = make_strategy(name, inst)
            gap = abs(exact_strategy_cost(strat)
                      - sweep_cost(lambda x: run_strategy(strat, x), inst))
            worst_gap = max(worst_gap, gap)
    sweep_ok = worst_gap <= TOL

    inst = random_instance(3, 2, seed=91_000)
    strat = make_strategy("abs4", inst)
    exact = exact_strategy_cost(strat)
    hits = 0
    for seed in range(100):
        mc = monte_carlo_cost(strat, 600, seed=seed)
        if abs(mc.mean - exact) <= 4.0 * mc.stderr + 1e-12:
            hits += 1
    mc_ok = hits >= 99
    ok = sweep_ok and mc_ok
    _report(10, ok, f"max |exact - sweep| = {worst_gap:.2e}; "
                    f"{hits}/100 seeds within 4 standard errors")
    assert ok
