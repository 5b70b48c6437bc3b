"""In-memory tracing of quickcount's layers, installed from outside the library.

The tracer wraps the public calls each layer exposes by replacing module and
class attributes, and puts every original back on exit.  Nothing under src/
knows about it.

Coarse calls (the run, corpus generation and loading, rows, oracle solves,
exact evaluations and Monte Carlo runs) become spans with a parent.  Hot
calls (strategy steps, dual-greedy selections, kernels and goal
evaluations) happen millions of times, so each name only aggregates a call
count, total time and self time; every span records how many hot calls of
each name happened inside it.  Self time is a call's duration minus the
time of the traced calls nested in it.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict
from typing import Callable

from workloads import EXACT_ALGOS, MC_ALGOS

HOT_NAMES = ("strategies.next_test", "strategies.advance",
             "dualgreedy.adg_select", "goals.evaluate", "kernels.sbb_pick",
             "kernels.round_robin")


class Tracer:
    """Spans and hot-call aggregates of one process; use as a context manager."""

    def __init__(self, quickcount_modules) -> None:
        self._qc = quickcount_modules
        self._clock = time.perf_counter
        self._t0 = self._clock()
        self.spans: list[dict] = []
        self.hot = {name: [0, 0.0, 0.0] for name in HOT_NAMES}  # calls, total, self
        self._frames = [[self._t0, 0.0]]  # [start, seconds of traced children]
        self._open: list[dict] = []
        self._hot_at_open: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []
        self._instance = None

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, **attrs) -> dict:
        """Start a coarse span under the innermost open one."""
        span = {"id": len(self.spans),
                "parent": self._open[-1]["id"] if self._open else None,
                "name": name, "attrs": attrs}
        self.spans.append(span)
        self._open.append(span)
        self._hot_at_open.append({k: v[0] for k, v in self.hot.items()})
        now = self._clock()
        span["start"] = now - self._t0
        self._frames.append([now, 0.0])
        return span

    def close(self, span: dict, **attrs) -> None:
        """End the innermost open span, which must be `span`."""
        end = self._clock()
        if not self._open or self._open[-1] is not span:
            raise RuntimeError(f"span {span['name']!r} closed out of order")
        self._open.pop()
        start, children = self._frames.pop()
        self._frames[-1][1] += end - start
        span["end"] = end - self._t0
        span["self_s"] = end - start - children
        span["attrs"].update(attrs)
        before = self._hot_at_open.pop()
        span["calls"] = {k: v[0] - before[k] for k, v in self.hot.items()
                         if v[0] != before[k]}

    def _coarse(self, name: str, fn: Callable, attrs: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = self.open(name, **attrs(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, error=type(exc).__name__)
                raise
            self.close(span)
            return result
        return traced

    def _hot(self, name: str, fn: Callable) -> Callable:
        stats = self.hot[name]
        frames = self._frames
        clock = self._clock

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                frames.pop()
                frames[-1][1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, make(getattr(owner, attr)))

    def __enter__(self) -> "Tracer":
        bench, core, oracle, strategies = (
            self._qc.bench, self._qc.core, self._qc.oracle, self._qc.strategies)

        def oracle_attrs(instance, objective, *rest, **kw):
            return {"objective": objective, "n": instance.n, "d": instance.d,
                    "est_states": oracle.estimate_belief_states(instance.n, instance.d)}

        def load(original):
            def traced(path):
                self._instance = path.replace("\\", "/").rsplit("/", 1)[-1]
                span = self.open("bench.load", instance=self._instance)
                try:
                    return original(path)
                finally:
                    self.close(span)
            return staticmethod(traced)

        def make_strategy(original):
            # A row runs from make_strategy (followed by the oracle solve, when
            # one is due) to the end of evaluate_strategy, as in run_experiment.
            def traced(algo, instance):
                span = self.open("row", algo=algo, instance=self._instance)
                try:
                    return original(algo, instance)
                except BaseException as exc:
                    self.close(span, error=type(exc).__name__)
                    raise
            return traced

        def evaluate_strategy(original):
            def traced(*args, **kwargs):
                row = self._open[-1]
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    self.close(row, error=type(exc).__name__)
                    raise
                self.close(row)
                return result
            return traced

        def goal_factory(original):
            def traced(*args, **kwargs):
                goal = original(*args, **kwargs)
                return dataclasses.replace(
                    goal, evaluate=self._hot("goals.evaluate", goal.evaluate))
            return traced

        self._patch(bench, "generate", lambda f: self._coarse(
            "bench.generate", f, lambda spec: {"kind": spec.kind, "n": spec.n, "d": spec.d}))
        self._patch(core.Instance, "load", load)
        self._patch(bench, "make_strategy", make_strategy)
        self._patch(bench, "evaluate_strategy", evaluate_strategy)
        for owner in (bench, oracle):  # run_experiment, and evaluate_strategy's fallback
            self._patch(owner, "optimal_expected_cost",
                        lambda f: self._coarse("oracle", f, oracle_attrs))
        self._patch(oracle, "exact_strategy_cost", lambda f: self._coarse(
            "evaluator", f, lambda strategy: {"algo": strategy.name}))
        self._patch(oracle, "monte_carlo_cost", lambda f: self._coarse(
            "montecarlo", f, lambda strategy, trials, seed, *rest, **kw:
                {"algo": strategy.name, "trials": trials}))
        for cls in _subclasses(strategies.Strategy):
            for method in ("next_test", "advance"):
                if method in vars(cls):
                    self._patch(cls, method,
                                lambda f, m=method: self._hot(f"strategies.{m}", f))
        self._patch(strategies, "adg_select",
                    lambda f: self._hot("dualgreedy.adg_select", f))
        for factory in ("ternary_threshold_goal", "abs_majority_goal"):
            self._patch(strategies, factory, goal_factory)
        self._patch(strategies, "_sbb_pick", lambda f: self._hot("kernels.sbb_pick", f))
        for kernel in ("kofn_permutation_for", "two_candidate_round_robin"):
            self._patch(strategies, kernel, lambda f: self._hot("kernels.round_robin", f))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span and hot aggregate as JSON."""
        hot = {name: {"calls": c, "total_s": t, "self_s": s}
               for name, (c, t, s) in self.hot.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "hot": hot}, fh, default=str)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, by the names BENCHMARK.json declares."""
        by_name = defaultdict(list)
        for span in self.spans:
            by_name[span["name"]].append(span)

        def seconds(spans) -> float:
            return sum(s["end"] - s["start"] for s in spans)

        def calls(spans, hot_name) -> int:
            return sum(s["calls"].get(hot_name, 0) for s in spans)

        def ratio(num, den) -> float:
            return num / den if den else 0.0

        m: dict[str, float] = {}
        oracle = by_name["oracle"]
        solved = [s for s in oracle if "error" not in s["attrs"]]
        m["oracle.s"] = seconds(oracle)
        m["oracle.calls"] = len(oracle)
        m["oracle.ms_per_call"] = 1e3 * ratio(m["oracle.s"], len(oracle))
        m["oracle.refused"] = sum(s["attrs"].get("error") == "BudgetExceededError"
                                  for s in oracle)
        m["oracle.est_states"] = sum(s["attrs"]["est_states"] for s in solved)

        evaluator = by_name["evaluator"]
        for algo in EXACT_ALGOS:
            mine = [s for s in evaluator if s["attrs"]["algo"] == algo]
            m[f"evaluator.s.{algo}"] = seconds(mine)
            m[f"evaluator.nodes.{algo}"] = calls(mine, "strategies.next_test")
        m["evaluator.nodes_per_s"] = ratio(calls(evaluator, "strategies.next_test"),
                                           seconds(evaluator))

        mc = by_name["montecarlo"]
        for algo in MC_ALGOS:
            m[f"montecarlo.s.{algo}"] = seconds(
                [s for s in mc if s["attrs"]["algo"] == algo])
        trials = sum(s["attrs"]["trials"] for s in mc)
        m["montecarlo.trials_per_s"] = ratio(trials, seconds(mc))
        m["montecarlo.advance_per_trial"] = ratio(calls(mc, "strategies.advance"), trials)

        def per_call_us(name) -> float:
            c, total, _ = self.hot[name]
            return 1e6 * ratio(total, c)

        for step in ("next_test", "advance"):
            m[f"strategies.{step}.calls"] = self.hot[f"strategies.{step}"][0]
            m[f"strategies.{step}.us"] = per_call_us(f"strategies.{step}")
        adg_calls, _, adg_self = self.hot["dualgreedy.adg_select"]
        m["dualgreedy.adg_select.calls"] = adg_calls
        m["dualgreedy.adg_select.us"] = per_call_us("dualgreedy.adg_select")
        m["dualgreedy.adg_select.self_s"] = adg_self
        m["goals.evaluate.calls"] = self.hot["goals.evaluate"][0]
        m["goals.evaluate_per_select"] = ratio(self.hot["goals.evaluate"][0], adg_calls)
        for kernel in ("sbb_pick", "round_robin"):
            m[f"kernels.{kernel}.calls"] = self.hot[f"kernels.{kernel}"][0]
            m[f"kernels.{kernel}.us"] = per_call_us(f"kernels.{kernel}")
        m["bench.generate_s"] = seconds(by_name["bench.generate"])
        m["bench.load_s"] = seconds(by_name["bench.load"])
        return m


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
