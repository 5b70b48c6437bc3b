"""The benchmark's layer tracer (perfbench/tracing.py) still sees every layer.

The tracer wraps strategy methods and module names from outside the
library, so a refactor that moves one of them would silently zero a
per-layer metric.  These tests run it in-process on a tiny corpus.
"""

from pathlib import Path

import pytest

from conftest import evaluated_states
import quickcount
from quickcount.bench import GeneratorSpec, generate, run_experiment
from quickcount.core import Instance
from quickcount.strategies import STRATEGIES, Abs4

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPECS = [GeneratorSpec("random", 5, 3, seed=4), GeneratorSpec("random", 4, 2, seed=5)]


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


@pytest.fixture
def corpus(tmp_path):
    paths = []
    for i, spec in enumerate(SPECS):
        path = tmp_path / f"i{i}.json"
        generate(spec).dump(str(path))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("method", ["exact", "mc"])
def test_tracer_counts_every_hot_name(tracing, corpus, method):
    with tracing.Tracer(quickcount) as tracer:
        rows, _ = run_experiment(corpus, sorted(STRATEGIES), method=method,
                                 trials=50, seed=1)
    assert len(rows) == len(SPECS) * len(STRATEGIES)
    # Exact evaluation settles every child itself and never advances.
    uncounted = [name for name in tracing.HOT_NAMES if tracer.hot[name][0] < 1]
    assert uncounted == (["strategies.advance"] if method == "exact" else [])


def test_tracer_counts_one_evaluator_node_per_distinct_state(tracing, corpus):
    # A node is a distinct state exact evaluation asks next_test: abs4's
    # undecided kernel states, not its walked Phase 1 and no stopping
    # state, since the evaluator settles abs4's children itself.
    with tracing.Tracer(quickcount) as tracer:
        run_experiment(corpus, ["abs4"], method="exact")
    distinct = sum(len(evaluated_states(Abs4(Instance.load(path)))[1])
                   for path in corpus)
    assert tracer.layer_metrics()["evaluator.nodes.abs4"] == distinct


@pytest.mark.parametrize("algo", ["abs4", "rel8"])
def test_tracer_sees_no_advance_in_a_declared_exact_run(tracing, corpus, algo):
    # abs4 and rel8 declare their Phase 1 walked, so exact evaluation
    # settles every child itself and asks next_test only on kernel states.
    with tracing.Tracer(quickcount) as tracer:
        run_experiment(corpus, [algo], method="exact")
    metrics = tracer.layer_metrics()
    assert metrics["strategies.advance.calls"] == 0
    assert metrics["strategies.next_test.calls"] == metrics[f"evaluator.nodes.{algo}"] > 0


def test_tracer_sees_no_step_of_an_array_phase1(tracing, corpus):
    # naive_abs never leaves Phase 1, which Monte Carlo walks as arrays: under
    # the tracer, which replaces next_test and advance on the classes, the
    # run still takes that path and makes no step call.
    with tracing.Tracer(quickcount) as tracer:
        run_experiment(corpus, ["naive_abs"], method="mc", trials=50, seed=1)
    assert tracer.hot["strategies.advance"][0] == 0
    assert tracer.hot["strategies.next_test"][0] == 0
