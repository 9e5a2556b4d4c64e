"""Per-layer measurement for the traced run.

Two sources, both outside ``src/``:

* wrappers this process installs around public functions of each layer
  (enumeration, kernel compilation and evaluation, the annealer, the
  HTTP answer/render helpers, template lookups), timing every call;
* the spans the program already emits through ``repro.obs.TRACER``
  (``gateway.plan``, ``queue.wait``, ``plan.cache_lookup``,
  ``search.*``, ``templates.lookup``, ``event.*``), harvested from the
  tracer's finished-trace buffer between batches of requests and
  written out as JSON lines when the run ends.

The wrappers exist only while :class:`LayerProbe` is installed, i.e.
only during the traced timed loop of a ``--trace 1`` run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path

import repro.core.configurator as configurator
import repro.service.http as http
import repro.service.planner as planner
from repro.core.latency_kernel import IncrementalEvaluator, LatencyKernel
from repro.core.templates import TemplateLibrary
from repro.obs.trace import TRACER

#: Every per-layer metric, in report order, with its unit.  A layer a
#: workload never enters reports 0 (zero calls, zero busy time).
PER_LAYER = (
    ("setup.import_s", "s"),
    ("setup.profile_s", "s"),
    ("setup.estimator_fit_s", "s"),
    ("setup.prefill_s", "s"),
    ("setup.template_warm_s", "s"),
    ("parallel.enumerate_s", "s"),
    ("parallel.candidates", "count"),
    ("memory_estimator.check_s", "s"),
    ("memory_estimator.reject_ratio", "1"),
    ("latency_model.score_s", "s"),
    ("latency_model.scored", "count"),
    ("latency_kernel.compile_s", "s"),
    ("latency_kernel.evals", "count"),
    ("latency_kernel.eval_us", "us"),
    ("annealing.refine_s", "s"),
    ("annealing.iters", "count"),
    ("annealing.iter_us", "us"),
    ("annealing.accept_ratio", "1"),
    ("annealing.kernel_share", "1"),
    ("http.roundtrip_us", "us"),
    ("http.answer_us", "us"),
    ("http.render_us", "us"),
    ("http.transport_us", "us"),
    ("http.response_bytes", "B"),
    ("gateway.plan_us", "us"),
    ("gateway.queue_wait_us", "us"),
    ("gateway.coalesced_ratio", "1"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "1"),
    ("cache.retired", "count"),
    ("templates.lookup_us", "us"),
    ("templates.hit_ratio", "1"),
    ("templates.polish_s", "s"),
    ("event.apply_us", "us"),
    ("trace.overhead_ratio", "1"),
)


class _Timer:
    """Call count and busy seconds of one wrapped entry point."""

    __slots__ = ("calls", "busy_s", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.items = 0

    def mean(self) -> float:
        return self.busy_s / self.calls if self.calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerProbe:
    """Installs the per-layer wrappers and collects spans.

    Gateway drains run in worker threads, so every counter update takes
    one lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.enumerate = _Timer()
        self.compile = _Timer()
        self.kernel = _Timer()
        self.anneal = _Timer()
        self.anneal_accepted = 0
        self.anneal_kernel_s = 0.0
        self.search_iterations = 0
        self.answer = _Timer()
        self.render = _Timer()
        self.lookup = _Timer()
        self.spans: "list[dict]" = []
        self._restore: "list[tuple[object, str, object]]" = []

    # ----------------------------------------------------------- wrappers

    def _add(self, timer: _Timer, busy_s: float, items: int = 0) -> None:
        with self._lock:
            timer.calls += 1
            timer.busy_s += busy_s
            timer.items += items

    def _patch(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        self._restore.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make(original)))

    def install(self) -> None:
        def counted(timer, items=lambda out, args: 0):
            def make(fn):
                def wrapper(*args, **kwargs):
                    t0 = time.perf_counter()
                    out = fn(*args, **kwargs)
                    self._add(timer, time.perf_counter() - t0,
                              items(out, args))
                    return out
                return wrapper
            return make

        self._patch(configurator, "enumerate_parallel_configs",
                    counted(self.enumerate, lambda out, _: len(out)))
        self._patch(configurator, "pipette_kernel", counted(self.compile))
        one = lambda out, _: 1  # noqa: E731
        self._patch(LatencyKernel, "evaluate_perm", counted(self.kernel, one))
        self._patch(LatencyKernel, "evaluate_batch",
                    counted(self.kernel, lambda out, _: len(out)))
        self._patch(IncrementalEvaluator, "bind", counted(self.kernel, one))
        self._patch(IncrementalEvaluator, "propose",
                    counted(self.kernel, one))
        self._patch(TemplateLibrary, "lookup", counted(self.lookup))
        self._patch(configurator, "anneal_mapping", self._annealer(True))
        self._patch(planner, "anneal_mapping", self._annealer(False))
        self._patch(http, "plan_response_payload", counted(self.render))

        def make_answer(fn):
            async def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                out = await fn(*args, **kwargs)
                self._add(self.answer, time.perf_counter() - t0)
                return out
            return wrapper
        self._patch(http, "answer_payload", make_answer)

    def _annealer(self, from_search: bool):
        def make(fn):
            def wrapper(*args, **kwargs):
                kernel_before = self.kernel.busy_s
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                busy = time.perf_counter() - t0
                with self._lock:
                    self.anneal.calls += 1
                    self.anneal.busy_s += busy
                    self.anneal.items += result.iterations
                    self.anneal_accepted += result.accepted
                    self.anneal_kernel_s += self.kernel.busy_s - kernel_before
                    if from_search:
                        self.search_iterations += result.iterations
                return result
            return wrapper
        return make

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -------------------------------------------------------------- spans

    def harvest(self) -> None:
        """Move every finished trace out of the tracer's ring buffer.

        Call only while no request is in flight: the reset drops open
        traces too.  The buffer holds 256 traces, so callers harvest at
        least that often.
        """
        for summary in TRACER.traces():
            tree = TRACER.trace(summary["trace_id"])
            stack = [tree["root"], *tree.get("orphans", ())]
            while stack:
                node = stack.pop()
                if node is None:
                    continue
                stack.extend(node.pop("children", ()))
                self.spans.append(node)
        TRACER.reset()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, sort_keys=True) + "\n")

    def _named(self, *names: str) -> "list[dict]":
        return [s for s in self.spans if s["name"] in names]

    def flight_iterations(self) -> int:
        """SA iterations the searches' flight recorders reported.

        Must equal :attr:`search_iterations`, the count the wrapped
        annealer returned for the same refinements.
        """
        return sum(s["attributes"].get("anneal_iterations", 0)
                   for s in self._named("search.candidate"))

    # ------------------------------------------------------------ metrics

    def metrics(self, *, setup: dict, roundtrip_s: "list[float]",
                response_bytes: "list[int]", rejected: int,
                overhead_ratio: float) -> dict:
        """Every :data:`PER_LAYER` value from the harvested run."""

        def mean_ms(spans) -> float:
            return _ratio(sum(s["duration_ms"] for s in spans), len(spans))

        def share(spans, key, value) -> float:
            return _ratio(sum(1 for s in spans
                              if s["attributes"].get(key) == value),
                          len(spans))

        memory = self._named("search.memory_check")
        score = self._named("search.score")
        lookups = self._named("plan.cache_lookup")
        gateway = self._named("gateway.plan")
        events = self._named("event.bandwidth", "event.failure")
        template_lookups = self._named("templates.lookup")
        searched = sum(1 for s in lookups
                       if s["attributes"].get("outcome") == "miss")
        roundtrip_us = _ratio(sum(roundtrip_s), len(roundtrip_s)) * 1e6
        answer_us = self.answer.mean() * 1e6
        render_us = self.render.mean() * 1e6
        values = {
            "setup.import_s": setup["import_s"],
            "setup.profile_s": setup["profile_s"],
            "setup.estimator_fit_s": setup.get("estimator_fit_s", 0.0),
            "setup.prefill_s": setup.get("prefill_s", 0.0),
            "setup.template_warm_s": setup.get("template_warm_s", 0.0),
            "parallel.enumerate_s": self.enumerate.mean(),
            "parallel.candidates": self.enumerate.items,
            "memory_estimator.check_s": mean_ms(memory) / 1e3,
            "memory_estimator.reject_ratio": _ratio(
                rejected, sum(s["attributes"]["candidates"] for s in memory)),
            "latency_model.score_s": mean_ms(score) / 1e3,
            "latency_model.scored": sum(s["attributes"]["candidates"]
                                        for s in score),
            "latency_kernel.compile_s": self.compile.mean(),
            "latency_kernel.evals": self.kernel.items,
            "latency_kernel.eval_us": _ratio(self.kernel.busy_s,
                                             self.kernel.items) * 1e6,
            "annealing.refine_s": _ratio(self.anneal.busy_s, searched),
            "annealing.iters": self.anneal.items,
            "annealing.iter_us": _ratio(self.anneal.busy_s,
                                        self.anneal.items) * 1e6,
            "annealing.accept_ratio": _ratio(self.anneal_accepted,
                                             self.anneal.items),
            "annealing.kernel_share": _ratio(self.anneal_kernel_s,
                                             self.anneal.busy_s),
            "http.roundtrip_us": roundtrip_us,
            "http.answer_us": answer_us,
            "http.render_us": render_us,
            "http.transport_us": roundtrip_us - answer_us - render_us
            if roundtrip_s else 0.0,
            "http.response_bytes": _ratio(sum(response_bytes),
                                          len(response_bytes)),
            "gateway.plan_us": mean_ms(gateway) * 1e3,
            "gateway.queue_wait_us": mean_ms(
                self._named("queue.wait")) * 1e3,
            "gateway.coalesced_ratio": share(gateway, "coalesced", True),
            "cache.lookup_us": mean_ms(lookups) * 1e3,
            "cache.hit_ratio": share(lookups, "outcome", "hit"),
            "cache.retired": sum(s["attributes"].get("retired", 0)
                                 for s in events),
            "templates.lookup_us": self.lookup.mean() * 1e6,
            "templates.hit_ratio": share(template_lookups, "outcome", "hit"),
            "templates.polish_s": mean_ms(
                self._named("search.template")) / 1e3,
            "event.apply_us": mean_ms(events) * 1e3,
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER}
