"""The benchmark's layer tracer (perfbench/tracing.py) still sees every layer.

The tracer wraps strategy methods and module names from outside the
library, so a refactor that moves one of them would silently zero a
per-layer metric.  These tests run it in-process on a tiny corpus.
"""

from pathlib import Path

import pytest

from conftest import reachable_states
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
    uncounted = [name for name in tracing.HOT_NAMES if tracer.hot[name][0] < 1]
    assert uncounted == []


def test_tracer_counts_one_evaluator_node_per_distinct_state(tracing, corpus):
    with tracing.Tracer(quickcount) as tracer:
        run_experiment(corpus, ["abs4"], method="exact")
    distinct = sum(len(reachable_states(Abs4(Instance.load(path))))
                   for path in corpus)
    assert tracer.layer_metrics()["evaluator.nodes.abs4"] == distinct
