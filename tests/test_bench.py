import pytest

from quickcount.bench import (ENVELOPES, GeneratorSpec, ResultRow, check_bounds,
                              generate, rows_to_csv, run_experiment, write_csv)
from quickcount.core import Instance, InstanceError


def test_adversarial_example_layout():
    inst = generate(GeneratorSpec(kind="adversarial", n=5, d=2, epsilon=0.1))
    assert inst.costs == (0.1, 0.1, 0.9, 0.9, 1.0)
    assert [row[0] for row in inst.probs] == [0.9, 0.9, 0.1, 0.1, 0.9]


def test_generator_is_deterministic_per_seed():
    spec = GeneratorSpec(kind="random", n=6, d=3, seed=42)
    assert generate(spec) == generate(spec)
    other = GeneratorSpec(kind="random", n=6, d=3, seed=43)
    assert generate(other) != generate(spec)


def test_random_instances_pass_loader_invariants():
    for seed in range(5):
        inst = generate(GeneratorSpec(kind="random", n=4, d=3, seed=seed))
        Instance.loads(inst.dumps())  # revalidates everything
        assert all(0 < c <= 1 for c in inst.costs)


def test_generator_spec_validation():
    with pytest.raises(InstanceError, match="kind"):
        GeneratorSpec(kind="weird", n=3, d=2)
    with pytest.raises(InstanceError, match="odd"):
        GeneratorSpec(kind="adversarial", n=4, d=2, epsilon=0.1)
    with pytest.raises(InstanceError, match="epsilon"):
        GeneratorSpec(kind="adversarial", n=5, d=2, epsilon=0.7)
    with pytest.raises(InstanceError, match="2 candidates"):
        GeneratorSpec(kind="adversarial", n=5, d=3, epsilon=0.1)


@pytest.mark.parametrize("fields, named", [
    (("random", 3.0, 2), "n"),
    (("random", 3, 2.0), "d"),
    (("random", 3, 2, 1.0), "seed"),
    (("random", True, 2), "n"),
    (("adversarial", 5.0, 2, 0, 0.01), "n"),
    (("adversarial", 5, 2, 0, "0.01"), "epsilon"),
    (("adversarial", 5, 2, 0, True), "epsilon"),
])
def test_generator_spec_rejects_a_value_of_the_wrong_type(fields, named):
    with pytest.raises(InstanceError, match=f"^{named}: expected"):
        GeneratorSpec(*fields)


def _write_instances(tmp_path, specs):
    paths = []
    for i, spec in enumerate(specs):
        path = tmp_path / f"inst{i}.json"
        generate(spec).dump(str(path))
        paths.append(str(path))
    return paths


def test_run_experiment_exact_tiny_instance_ratio_one(tmp_path):
    paths = _write_instances(tmp_path, [GeneratorSpec("random", 2, 2, seed=3)])
    rows, warnings = run_experiment(paths, ["abs4"], method="exact")
    assert not warnings
    (row,) = rows
    assert row.algo == "abs4" and row.method == "exact"
    assert row.ratio == pytest.approx(1.0)  # both votes are always needed
    assert row.trials is None and row.seed is None


def test_run_experiment_ratio_is_one_when_nothing_costs(tmp_path):
    # OPT = 0 and the strategy spends 0 too: the row says ratio 1.0, as the
    # evaluation report does, rather than leaving it blank.
    path = tmp_path / "free.json"
    Instance(n=3, d=2, costs=(0.0,) * 3, probs=((0.5, 0.5),) * 3).dump(str(path))
    rows, warnings = run_experiment([str(path)], ["abs4"], method="exact")
    assert not warnings
    (row,) = rows
    assert row.opt_cost == 0.0 and row.expected_cost == 0.0
    assert row.ratio == 1.0


def test_run_experiment_empty_algos(tmp_path):
    paths = _write_instances(tmp_path, [GeneratorSpec("random", 2, 2, seed=3)])
    with pytest.raises(ValueError, match="no algos"):
        run_experiment(paths, [], method="exact")


def test_run_experiment_budget_downgrade(tmp_path):
    big = tmp_path / "big.json"
    generate(GeneratorSpec("random", 18, 2, seed=1)).dump(str(big))
    rows, warnings = run_experiment([str(big)], ["naive_abs"], method="mc",
                                    trials=20, seed=0)
    assert rows[0].opt_cost is None and rows[0].ratio is None
    assert warnings and "big.json" in warnings[0]


def test_run_experiment_mc_rows_record_trials_and_seed(tmp_path):
    paths = _write_instances(tmp_path, [GeneratorSpec("random", 3, 2, seed=5)])
    rows, _ = run_experiment(paths, ["abs4", "naive_abs"], method="mc",
                             trials=64, seed=9)
    assert [r.algo for r in rows] == ["abs4", "naive_abs"]
    assert all(r.trials == 64 and r.seed == 9 for r in rows)


def test_csv_determinism_and_timestamp_suppression(tmp_path):
    paths = _write_instances(tmp_path, [GeneratorSpec("random", 3, 2, seed=5)])
    rows, _ = run_experiment(paths, ["abs4"], method="exact")
    a = rows_to_csv(rows, timestamp=False)
    b = rows_to_csv(rows, timestamp=False)
    assert a == b
    assert a.splitlines()[0].startswith("instance_id,")
    with_ts = rows_to_csv(rows, timestamp=True)
    assert with_ts.splitlines()[0].startswith("# generated ")
    out = tmp_path / "rows.csv"
    write_csv(rows, str(out), timestamp=False)
    assert out.read_text() == a


def test_adversarial_family_separates_naive_from_cost_sensitive():
    # At n=101, eps=0.001 the measured means are about 49.8 vs 3.4 (the
    # cost-sensitive strategy is exactly optimal here); assert a
    # conservative 10x separation at a small trial count.
    from quickcount.oracle import monte_carlo_cost
    from quickcount.strategies import make_strategy
    inst = generate(GeneratorSpec(kind="adversarial", n=101, d=2, epsilon=0.001))
    naive = monte_carlo_cost(make_strategy("naive_abs", inst), 2000, seed=17)
    smart = monte_carlo_cost(make_strategy("abs4", inst), 2000, seed=17)
    assert naive.mean >= 10.0 * smart.mean


def test_check_bounds_flags_violations():
    good = ResultRow("i", 3, 2, "abs4", "exact", 1.0, 1.0, 1.0)
    bad = ResultRow("i", 3, 2, "abs4", "exact", 9.0, 1.0, 9.0)
    unbounded = ResultRow("i", 3, 2, "naive_abs", "exact", 9.0, 1.0, 9.0)
    mc = ResultRow("i", 3, 2, "abs4", "monte-carlo", 9.0, 1.0, 9.0)
    assert check_bounds([good, unbounded, mc]) == []
    assert len(check_bounds([good, bad])) == 1
    assert set(ENVELOPES) == {"abs4", "abs6_threeround", "abs10_tworound", "rel8"}


def test_run_experiment_solves_only_within_the_run_budget(tmp_path, monkeypatch):
    # An instance the run's budget refuses is solved under no other budget,
    # and once per objective: evaluate_strategy takes the optimum and never
    # solves.
    from quickcount import oracle
    budgets = []

    class Recording(oracle._Oracle):
        def __init__(self, instance, objective, max_states=oracle.DEFAULT_MAX_STATES):
            budgets.append(max_states)
            super().__init__(instance, objective, max_states)

    monkeypatch.setattr(oracle, "_Oracle", Recording)
    paths = _write_instances(tmp_path, [GeneratorSpec("random", 5, 2, seed=4)])
    rows, warnings = run_experiment(paths, ["abs4", "naive_abs"], method="exact",
                                    max_states=50)  # about 112 states needed
    assert budgets == [50]  # abs4 and naive_abs share one objective
    assert [r.opt_cost for r in rows] == [None, None] and len(warnings) == 1


@pytest.mark.parametrize("d, solves", [(2, 1), (3, 2)])
def test_run_experiment_solves_both_objectives_once_at_two_candidates(
        tmp_path, monkeypatch, d, solves):
    # At d = 2 the abs and rel certificates decide the same tallies, so their
    # optima are one value: abs4 and rel8 share one solve, and each row
    # reports its own objective's optimum, bit for bit.
    from quickcount import oracle
    built = []

    class Recording(oracle._Oracle):
        def __init__(self, instance, objective, max_states=oracle.DEFAULT_MAX_STATES):
            built.append(objective)
            super().__init__(instance, objective, max_states)

    spec = GeneratorSpec("random", 6, d, seed=8)
    paths = _write_instances(tmp_path, [spec])
    monkeypatch.setattr(oracle, "_Oracle", Recording)
    rows, _ = run_experiment(paths, ["abs4", "rel8"], method="exact")
    assert len(built) == solves
    monkeypatch.undo()
    inst = generate(spec)
    assert [r.opt_cost.hex() for r in rows] == [
        oracle.optimal_expected_cost(inst, objective).hex()
        for objective in ("abs", "rel")]
