import json
import sys

import pytest

from quickcount import bench
from quickcount.cli import main
from quickcount.core import Instance


def test_gen_random_writes_valid_instance(tmp_path):
    out = tmp_path / "inst.json"
    code = main(["gen", "--kind", "random", "--n", "4", "--d", "3",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    inst = Instance.load(str(out))
    assert (inst.n, inst.d) == (4, 3)


def test_gen_adversarial_defaults_to_two_candidates(tmp_path):
    out = tmp_path / "adv.json"
    code = main(["gen", "--kind", "adversarial", "--n", "5",
                 "--epsilon", "0.1", "--seed", "0", "--out", str(out)])
    assert code == 0
    inst = Instance.load(str(out))
    assert inst.costs == (0.1, 0.1, 0.9, 0.9, 1.0)


def test_gen_random_requires_d(tmp_path, capsys):
    code = main(["gen", "--kind", "random", "--n", "4", "--seed", "1",
                 "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "--d" in capsys.readouterr().err


def test_gen_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = main(["gen", "--kind", "random", "--n", "4", "--d", "3",
                 "--seed", "-1", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "gen: seed: must be >= 0, got -1" in capsys.readouterr().err


def test_gen_rejects_bad_epsilon(tmp_path, capsys):
    code = main(["gen", "--kind", "adversarial", "--n", "5",
                 "--epsilon", "0.9", "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "epsilon" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert main(["run", "--nonsense"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["--help"]) == 0


def _gen(tmp_path, name, n, d, seed):
    out = tmp_path / name
    assert main(["gen", "--kind", "random", "--n", str(n), "--d", str(d),
                 "--seed", str(seed), "--out", str(out)]) == 0
    return out


def test_run_exact_produces_csv(tmp_path):
    _gen(tmp_path, "a.json", 3, 2, 1)
    _gen(tmp_path, "b.json", 4, 2, 2)
    out = tmp_path / "rows.csv"
    code = main(["run", "--instances", str(tmp_path / "*.json"),
                 "--algos", "abs4,naive_abs", "--method", "exact",
                 "--assert-bounds", "--no-timestamp", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("instance_id,n,d,algo,method,expected_cost,"
                        "opt_cost,ratio,trials,seed")
    assert len(lines) == 1 + 4  # two instances x two algos
    rerun = tmp_path / "rows2.csv"
    main(["run", "--instances", str(tmp_path / "*.json"),
          "--algos", "abs4,naive_abs", "--method", "exact",
          "--no-timestamp", "--out", str(rerun)])
    assert rerun.read_text() == out.read_text()


def test_run_no_matching_instances(tmp_path, capsys):
    code = main(["run", "--instances", str(tmp_path / "none*.json"),
                 "--algos", "abs4", "--method", "exact",
                 "--out", str(tmp_path / "o.csv")])
    assert code == 1


def test_run_assert_bounds_exit_code(tmp_path, monkeypatch):
    _gen(tmp_path, "a.json", 3, 2, 1)
    # Force a violation by shrinking the envelope.
    monkeypatch.setitem(bench.ENVELOPES, "abs4", 0.5)
    code = main(["run", "--instances", str(tmp_path / "a.json"),
                 "--algos", "abs4", "--method", "exact", "--assert-bounds",
                 "--out", str(tmp_path / "o.csv")])
    assert code == 2


def test_oracle_prints_optimum(tmp_path, capsys):
    path = _gen(tmp_path, "a.json", 3, 2, 1)
    code = main(["oracle", "--instance", str(path), "--objective", "abs"])
    assert code == 0
    printed = float(capsys.readouterr().out.strip())
    from quickcount.oracle import optimal_expected_cost
    assert printed == optimal_expected_cost(Instance.load(str(path)), "abs")


def test_oracle_budget_exit_code(tmp_path, capsys):
    path = _gen(tmp_path, "big.json", 20, 2, 1)
    code = main(["oracle", "--instance", str(path), "--objective", "abs"])
    assert code == 3
    assert "belief states" in capsys.readouterr().err


def test_oracle_rejects_a_negative_budget_as_a_usage_error(tmp_path, capsys):
    path = _gen(tmp_path, "a.json", 3, 2, 1)
    code = main(["oracle", "--instance", str(path), "--objective", "abs",
                 "--max-states", "-1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "max_states must be >= 0" in err and "belief states" not in err
    # A budget of 0 is valid and refuses every instance.
    code = main(["oracle", "--instance", str(path), "--objective", "abs",
                 "--max-states", "0"])
    assert code == 3
    assert "budget of 0" in capsys.readouterr().err


def test_run_rejects_a_negative_budget_before_any_work(tmp_path, capsys,
                                                       monkeypatch):
    _gen(tmp_path, "a.json", 3, 2, 1)
    evaluated = []
    monkeypatch.setattr(bench, "evaluate_strategy",
                        lambda strategy, **kw: evaluated.append(strategy.name))
    out = tmp_path / "o.csv"
    code = main(["run", "--instances", str(tmp_path / "a.json"),
                 "--algos", "abs4", "--method", "exact", "--max-states", "-1",
                 "--out", str(out)])
    assert code == 1
    assert evaluated == [] and not out.exists()
    err = capsys.readouterr().err
    assert "max_states must be >= 0" in err and "warning:" not in err
    monkeypatch.undo()
    code = main(["run", "--instances", str(tmp_path / "a.json"),
                 "--algos", "abs4", "--method", "exact", "--max-states", "0",
                 "--out", str(out)])
    assert code == 0
    assert "optimum unavailable" in capsys.readouterr().err


def test_transcript_prints_run_json(tmp_path, capsys):
    path = _gen(tmp_path, "a.json", 3, 2, 1)
    code = main(["transcript", "--instance", str(path), "--algo", "abs4",
                 "--realization", "1,1,2"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) == {"algo", "steps", "phases", "result"}
    assert obj["algo"] == "abs4"
    assert all(1 <= s["voter"] <= 3 for s in obj["steps"])


def test_transcript_rejects_malformed_realization(tmp_path, capsys):
    path = _gen(tmp_path, "a.json", 3, 2, 1)
    assert main(["transcript", "--instance", str(path), "--algo", "abs4",
                 "--realization", "1,x,2"]) == 1
    assert main(["transcript", "--instance", str(path), "--algo", "abs4",
                 "--realization", "1,1"]) == 1


def test_run_skips_rows_a_strategy_cannot_handle(tmp_path, capsys):
    # adg_abs's composed goal stops at n = 64; abs4's row is still written.
    _gen(tmp_path, "big.json", 70, 2, 1)
    out = tmp_path / "rows.csv"
    code = main(["run", "--instances", str(tmp_path / "big.json"),
                 "--algos", "abs4,adg_abs", "--method", "mc", "--trials", "20",
                 "--no-timestamp", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert [line.split(",")[3] for line in lines[1:]] == ["abs4"]
    err = capsys.readouterr().err
    assert "warning:" in err and "adg_abs skipped" in err


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_run_writes_exact_rows_at_any_depth(tmp_path, capsys):
    # The exact evaluator walks depth by depth without recursing, so the
    # cheapest-first paths of adversarial n=101, which run past 60 tests,
    # are evaluated under a limit 60 frames above here exactly as under the
    # default limit: the same bytes, and no row skipped.
    _gen(tmp_path, "a.json", 5, 3, 1)
    assert main(["gen", "--kind", "adversarial", "--n", "101", "--epsilon",
                 "1e-3", "--out", str(tmp_path / "adv.json")]) == 0
    capsys.readouterr()

    def run(out):
        code = main(["run", "--instances", str(tmp_path / "*.json"),
                     "--algos", "naive_abs,naive_rel", "--method", "exact",
                     "--no-timestamp", "--out", str(out)])
        return code, out.read_bytes(), capsys.readouterr().err

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        shallow = run(tmp_path / "shallow.csv")
    finally:
        sys.setrecursionlimit(limit)
    assert shallow == run(tmp_path / "default.csv")
    code, rows, err = shallow
    assert code == 0
    assert [tuple(line.split(",")[i] for i in (0, 3))
            for line in rows.decode().splitlines()[1:]] == [
        ("a", "naive_abs"), ("a", "naive_rel"),
        ("adv", "naive_abs"), ("adv", "naive_rel")]
    assert "skipped" not in err


def test_run_skips_exact_rows_past_the_evaluator_budget(tmp_path, capsys,
                                                       monkeypatch):
    # adg_abs's states carry its charges and seldom merge: on random (6,3)
    # they number 157, abs4's 114.  Under a budget of 120 distinct states
    # the adg_abs row is skipped with a warning and abs4's is written.
    _gen(tmp_path, "a.json", 6, 3, 2)
    monkeypatch.setattr("quickcount.oracle.EXACT_MAX_STATES", 120)
    out = tmp_path / "rows.csv"
    code = main(["run", "--instances", str(tmp_path / "a.json"),
                 "--algos", "adg_abs,abs4", "--method", "exact",
                 "--no-timestamp", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert [line.split(",")[3] for line in lines[1:]] == ["abs4"]
    skipped = [line for line in capsys.readouterr().err.splitlines()
               if "skipped" in line]
    assert skipped == [f"warning: {tmp_path / 'a.json'}: adg_abs skipped (exact "
                       "evaluation: more than 120 distinct strategy states)"]


@pytest.mark.parametrize("out, reason", [
    ("missing/rows.csv", "no directory"),
    (".", "it is a directory"),
])
def test_run_refuses_an_unwritable_out_before_any_work(tmp_path, capsys,
                                                       monkeypatch, out, reason):
    _gen(tmp_path, "a.json", 3, 2, 1)
    calls = 0
    evaluate = bench.evaluate_strategy

    def counted(*args, **kw):
        nonlocal calls
        calls += 1
        return evaluate(*args, **kw)

    monkeypatch.setattr(bench, "evaluate_strategy", counted)
    argv = ["run", "--instances", str(tmp_path / "a.json"), "--algos", "abs4",
            "--method", "exact", "--no-timestamp", "--out"]
    path = str(tmp_path / out)
    assert main(argv + [path]) == 1
    assert calls == 0 and not (tmp_path / "missing").exists()
    assert capsys.readouterr().err.startswith(f"run: cannot write {path!r}: {reason}")
    # The same run into a folder that exists writes its rows as before.
    good = tmp_path / "rows.csv"
    assert main(argv + [str(good)]) == 0 and calls == 1
    rows, _ = bench.run_experiment([str(tmp_path / "a.json")], ["abs4"])
    assert good.read_text(encoding="utf-8") == bench.rows_to_csv(rows, timestamp=False)


def test_run_rejects_unknown_algo_before_any_work(tmp_path, capsys, monkeypatch):
    _gen(tmp_path, "a.json", 3, 2, 1)
    evaluated = []
    monkeypatch.setattr(bench, "evaluate_strategy",
                        lambda strategy, **kw: evaluated.append(strategy.name))
    out = tmp_path / "o.csv"
    code = main(["run", "--instances", str(tmp_path / "a.json"),
                 "--algos", "abs4,nope", "--method", "exact", "--out", str(out)])
    assert code == 1
    assert evaluated == [] and not out.exists()
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_run_rejects_mc_without_trials_before_any_work(tmp_path, capsys,
                                                       monkeypatch, trials):
    _gen(tmp_path, "a.json", 3, 2, 1)

    def no_oracle(*args, **kw):
        raise AssertionError("the oracle ran before the trials were checked")

    monkeypatch.setattr(bench, "optimal_expected_cost", no_oracle)
    out = tmp_path / "o.csv"
    code = main(["run", "--instances", str(tmp_path / "a.json"),
                 "--algos", "abs4", "--method", "mc", "--trials", trials,
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "trials must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**128], ids=["-1", "2**128"])
def test_run_rejects_an_mc_seed_out_of_range_before_any_work(tmp_path, capsys,
                                                           monkeypatch, seed):
    _gen(tmp_path, "a.json", 3, 2, 1)

    def no_oracle(*args, **kw):
        raise AssertionError("the oracle ran before the seed was checked")

    monkeypatch.setattr(bench, "optimal_expected_cost", no_oracle)
    out = tmp_path / "o.csv"
    code = main(["run", "--instances", str(tmp_path / "a.json"),
                 "--algos", "abs4", "--method", "mc", "--trials", "10",
                 "--seed", str(seed), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert f"run: seed must be in [0, 2**128), got {seed}" in capsys.readouterr().err


@pytest.mark.parametrize("algos", [",", " , ,", ""])
def test_run_rejects_empty_algo_list_before_any_work(tmp_path, capsys, algos):
    _gen(tmp_path, "a.json", 3, 2, 1)
    out = tmp_path / "o.csv"
    code = main(["run", "--instances", str(tmp_path / "a.json"),
                 "--algos", algos, "--method", "exact", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "no algos" in capsys.readouterr().err


def test_run_skips_instance_files_that_do_not_load(tmp_path, capsys):
    # b.json lists one cost for two voters and c.json is a directory; a.json's
    # rows are still written, and each skipped file gets a warning.
    _gen(tmp_path, "a.json", 3, 2, 1)
    (tmp_path / "b.json").write_text(json.dumps(
        {"n": 2, "d": 2, "costs": [1.0], "probs": [[0.5, 0.5], [0.5, 0.5]]}))
    (tmp_path / "c.json").mkdir()
    out = tmp_path / "rows.csv"
    code = main(["run", "--instances", str(tmp_path / "*.json"),
                 "--algos", "abs4,naive_abs", "--method", "exact",
                 "--no-timestamp", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert [tuple(line.split(",")[i] for i in (0, 3)) for line in lines[1:]] == [
        ("a", "abs4"), ("a", "naive_abs")]
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 2
    assert warnings[0].startswith("warning: instance skipped (")
    assert "b.json: costs: expected 2 entries, got 1" in warnings[0]
    assert warnings[1].startswith("warning: instance skipped (")
    assert "c.json" in warnings[1]


def test_run_fails_when_no_instance_file_loads(tmp_path, capsys):
    (tmp_path / "b.json").write_text("{not json")
    (tmp_path / "c.json").mkdir()
    out = tmp_path / "rows.csv"
    code = main(["run", "--instances", str(tmp_path / "*.json"),
                 "--algos", "abs4", "--method", "exact", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "run: no instance file loads (2 tried; the first:" in err
    assert "b.json: invalid JSON" in err


# Valid JSON whose values have the wrong types, each with the message that
# names the field: the whole object, then the expected error text.
_VALID = {"n": 3, "d": 2, "costs": [1.0, 1.0, 1.0], "probs": [[0.5, 0.5]] * 3}
_WRONG_TYPES = {
    "n-string": (dict(_VALID, n="3"), "n: expected an integer, got '3'"),
    "n-float": (dict(_VALID, n=3.0), "n: expected an integer, got 3.0"),
    "n-bool": ({"n": True, "d": 2, "costs": [1.0], "probs": [[0.5, 0.5]]},
               "n: expected an integer, got True"),
    "d-string": (dict(_VALID, d="2"), "d: expected an integer, got '2'"),
    "costs-number": (dict(_VALID, costs=5), "costs: expected a list of numbers, got 5"),
    "cost-null": (dict(_VALID, costs=[1.0, None, 1.0]),
                  "costs[1]: expected a number, got None"),
    "probs-number": (dict(_VALID, probs=7), "probs: expected a list of rows, got 7"),
    "row-number": (dict(_VALID, probs=[[0.5, 0.5], 0.5, [0.5, 0.5]]),
                   "probs[1]: expected a list of numbers, got 0.5"),
    "prob-string": (dict(_VALID, probs=[[0.5, "x"], [0.5, 0.5], [0.5, 0.5]]),
                    "probs[0][1]: expected a number, got 'x'"),
}


@pytest.mark.parametrize("case", sorted(_WRONG_TYPES))
def test_run_skips_an_instance_of_wrong_types(tmp_path, capsys, case):
    obj, message = _WRONG_TYPES[case]
    _gen(tmp_path, "a.json", 3, 2, 1)
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    out = tmp_path / "rows.csv"
    code = main(["run", "--instances", str(tmp_path / "*.json"),
                 "--algos", "abs4,naive_abs", "--method", "exact",
                 "--no-timestamp", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert [tuple(line.split(",")[i] for i in (0, 3)) for line in lines[1:]] == [
        ("a", "abs4"), ("a", "naive_abs")]
    assert capsys.readouterr().err.splitlines() == [
        f"warning: instance skipped ({tmp_path / 'bad.json'}: {message})"]


@pytest.mark.parametrize("case", sorted(_WRONG_TYPES))
def test_oracle_rejects_an_instance_of_wrong_types(tmp_path, capsys, case):
    obj, message = _WRONG_TYPES[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["oracle", "--instance", str(path), "--objective", "abs"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"oracle: {path}: {message}\n"
