"""Spans, the tracer, and the trace ring buffer — stdlib only.

Aggregate Prometheus counters (:mod:`repro.service.metrics`) answer
"how many" and "how slow on average"; they cannot answer *"why did
this request take 900 ms"*.  This module supplies the per-request
story: a :class:`Span` is one named, timed step of a plan's life
(queue wait, cache lookup, one candidate's anneal), spans of one
request share a ``trace_id``, and the :class:`Tracer` collects each
finished trace into a bounded in-process ring buffer that the HTTP
front end exposes under ``GET /v1/debug/traces``.

Design constraints, in order:

* **near-free when disabled** — tracing is off by default, and the
  disabled path must cost one attribute read per call site: every
  span-producing entry point returns the singleton :data:`NULL_SPAN`
  whose mutators are no-ops, so instrumented code never branches on
  the switch itself.  The annealer's hot loop is kept out of this
  module entirely (see :mod:`repro.obs.recorder`), preserving the
  PR 5 kernel floor and bit-identical seed trajectories;
* **correct across threads and tasks** — parenting uses a
  ``contextvars.ContextVar`` (asyncio tasks inherit it at creation),
  and call sites that cross an explicit boundary (the gateway's lane
  queue into a drain thread) pass the parent span explicitly;
* **bounded everywhere** — finished traces live in a ring buffer
  (``max_traces``), open traces are capped (``max_open_traces``) and
  the oldest are dropped on overflow, and one trace holds at most
  ``max_spans_per_trace`` spans, so a tracing-enabled server cannot
  grow without bound no matter the traffic;
* **W3C interoperable** — incoming ``traceparent`` request headers
  are honored (the caller's trace id is adopted) and every traced
  HTTP response emits one, so Pipette spans slot into a larger
  distributed trace.

The span model, endpoint schemas, and overhead numbers are documented
in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import threading
import time
from collections import OrderedDict, deque

__all__ = [
    "NULL_SPAN",
    "Span",
    "TRACER",
    "Tracer",
    "format_traceparent",
    "parse_traceparent",
]

#: Finished traces kept for ``/v1/debug/traces`` (ring buffer bound).
DEFAULT_MAX_TRACES = 256

#: Open (root not yet finished) traces tracked at once.
DEFAULT_MAX_OPEN_TRACES = 512

#: Spans recorded per trace before further spans are dropped.
DEFAULT_MAX_SPANS_PER_TRACE = 512

#: Span names whose durations feed the per-phase latency histogram.
#: A fixed set keeps the ``phase`` label cardinality bounded no matter
#: what span names future call sites invent.
PHASE_SPANS = frozenset({
    "http.request", "gateway.plan", "queue.wait", "plan.cache_lookup",
    "plan.search", "search.memory_check", "search.score", "search.refine",
    "search.candidate", "registry.route", "replan", "replan.rerank",
    "replan.warm_anneal", "replan.cold_search", "event.bandwidth",
    "event.failure",
})

#: Buckets for the anneal iteration/evaluation histograms (counts, not
#: seconds — the latency default would collapse everything into +Inf).
ANNEAL_COUNT_BUCKETS = (100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
                        10000.0, 25000.0, 50000.0, 100000.0)


def _new_id(n_bytes: int) -> str:
    return os.urandom(n_bytes).hex()


def parse_traceparent(header: str) -> "tuple[str, str] | None":
    """``(trace_id, parent_span_id)`` from a W3C ``traceparent`` header.

    Returns ``None`` for malformed or all-zero values rather than
    raising — a bad header from a remote caller must never fail the
    request it rode in on.
    """
    parts = header.strip().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, _flags = parts
    if len(version) != 2 or len(trace_id) != 32 or len(span_id) != 16:
        return None
    try:
        int(version, 16), int(trace_id, 16), int(span_id, 16)
    except ValueError:
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return trace_id, span_id


def format_traceparent(span: "Span") -> str:
    """The W3C ``traceparent`` header value naming ``span``."""
    return f"00-{span.trace_id}-{span.span_id}-01"


class Span:
    """One named, timed step of a trace.

    Spans are created through :class:`Tracer` (never directly), carry
    free-form ``attributes``, and are recorded into their trace when
    :meth:`end` fires.  Wall-clock timestamps (``start_ts``) anchor
    the trace in real time; durations come from ``perf_counter`` so
    they survive clock steps.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start_ts",
                 "_start", "duration_s", "attributes", "_tracer", "_token",
                 "_local_root")

    def __init__(self, tracer: "Tracer | None", name: str, trace_id: str,
                 span_id: str, parent_id: "str | None",
                 attributes: "dict | None" = None) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ts = time.time()
        self._start = time.perf_counter()
        self.duration_s: "float | None" = None
        self.attributes: dict = dict(attributes) if attributes else {}
        self._tracer = tracer
        self._token = None
        # The first span of a trace in *this* process: its end finishes
        # the trace even when a remote traceparent gave it a parent id.
        self._local_root = False

    @property
    def recording(self) -> bool:
        """Whether this span lands anywhere (``False`` for the null span)."""
        return self._tracer is not None

    def set_attribute(self, key: str, value) -> "Span":
        """Attach one key/value to the span (chainable)."""
        self.attributes[key] = value
        return self

    def end(self) -> None:
        """Finish the span and record it (idempotent)."""
        if self._tracer is None or self.duration_s is not None:
            return
        self.duration_s = time.perf_counter() - self._start
        self._tracer._record(self)

    def to_payload(self) -> dict:
        """JSON-serializable form of the span."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ts": self.start_ts,
            "duration_ms": None if self.duration_s is None
            else round(self.duration_s * 1e3, 6),
            "attributes": self.attributes,
        }


class _NullSpan(Span):
    """The span returned while tracing is disabled: every mutator a no-op.

    One shared instance serves every call site, so the disabled path
    costs a method call that returns immediately — no allocation, no
    lock, no clock read.
    """

    def __init__(self) -> None:
        super().__init__(None, "", "0" * 32, "0" * 16, None)

    def set_attribute(self, key: str, value) -> "Span":
        return self

    def end(self) -> None:
        return


#: The shared disabled-path span.
NULL_SPAN = _NullSpan()

_current_span: "contextvars.ContextVar[Span | None]" = \
    contextvars.ContextVar("repro_obs_current_span", default=None)


class Tracer:
    """Creates spans, assembles traces, owns the ring buffer.

    One process-wide instance (:data:`TRACER`) serves the whole stack;
    tests may build private tracers.  All methods are thread-safe —
    spans finish on the event loop, in gateway drain threads, and in
    executor worker threads concurrently.

    Args:
        max_traces: finished traces kept for the debug endpoints.
        max_open_traces: traces whose root has not finished yet; the
            oldest open trace is dropped beyond this.
        max_spans_per_trace: recorded spans per trace; later spans of
            an over-full trace are counted (``dropped_spans``) but not
            stored.
    """

    def __init__(self, max_traces: int = DEFAULT_MAX_TRACES,
                 max_open_traces: int = DEFAULT_MAX_OPEN_TRACES,
                 max_spans_per_trace: int = DEFAULT_MAX_SPANS_PER_TRACE,
                 ) -> None:
        self.enabled = False
        self.max_traces = int(max_traces)
        self.max_open_traces = int(max_open_traces)
        self.max_spans_per_trace = int(max_spans_per_trace)
        self._lock = threading.Lock()
        self._open: "OrderedDict[str, list[Span]]" = OrderedDict()
        self._finished: "OrderedDict[str, dict]" = OrderedDict()
        self._trace_file = None
        self._trace_path: "str | None" = None
        self._phase_histogram = None
        self._anneal_iterations = None
        self._anneal_evaluations = None

    # ----------------------------------------------------------- lifecycle

    def enable(self, trace_file: "str | None" = None) -> None:
        """Turn tracing on, optionally mirroring spans to a file.

        ``trace_file`` appends one JSON line per finished span —
        the durable twin of the in-memory ring buffer, readable by
        ``python -m repro.service trace``.
        """
        with self._lock:
            if trace_file is not None:
                self._close_file_locked()
                self._trace_file = open(trace_file, "a", encoding="utf-8")
                self._trace_path = str(trace_file)
            self.enabled = True

    def disable(self) -> None:
        """Turn tracing off and close the trace file, keeping the buffer."""
        with self._lock:
            self.enabled = False
            self._close_file_locked()

    def reset(self) -> None:
        """Drop every open and finished trace (tests, mostly)."""
        with self._lock:
            self._open.clear()
            self._finished.clear()

    def _close_file_locked(self) -> None:
        if self._trace_file is not None:
            try:
                self._trace_file.close()
            except OSError:
                pass
            self._trace_file = None
            self._trace_path = None

    @property
    def trace_path(self) -> "str | None":
        """Path of the JSON-lines trace file, when one is open."""
        return self._trace_path

    # ------------------------------------------------------------- metrics

    def attach_metrics(self, metrics) -> None:
        """Export span-derived series on a metrics registry.

        ``pipette_phase_latency_seconds{phase=...}`` observes every
        finished span whose name is in :data:`PHASE_SPANS`;
        ``pipette_anneal_iterations`` / ``pipette_anneal_evaluations``
        observe each ``search.candidate`` span's flight-recorder
        counts.  Duck-typed on the registry (no import of
        :mod:`repro.service.metrics` here) to keep ``repro.obs``
        dependency-free.
        """
        self._phase_histogram = metrics.histogram(
            "pipette_phase_latency_seconds",
            "Wall-clock of one traced phase of a plan's life "
            "(span durations, by span name).",
            ("phase",))
        self._anneal_iterations = metrics.histogram(
            "pipette_anneal_iterations",
            "Simulated-annealing iterations per refined candidate.",
            buckets=ANNEAL_COUNT_BUCKETS)
        self._anneal_evaluations = metrics.histogram(
            "pipette_anneal_evaluations",
            "Objective evaluations per refined candidate "
            "(initial + temperature probes + one per iteration).",
            buckets=ANNEAL_COUNT_BUCKETS)

    # --------------------------------------------------------------- spans

    def current(self) -> "Span | None":
        """The active span of this task/thread, if any."""
        return _current_span.get()

    def start_span(self, name: str, parent: "Span | None" = None,
                   remote: "tuple[str, str] | None" = None,
                   **attributes) -> Span:
        """Start (and return) a span; the caller must :meth:`end` it.

        Parenting, most specific wins: an explicit ``parent`` span, a
        ``remote`` ``(trace_id, span_id)`` pair from a ``traceparent``
        header, then the context-local current span, else a new root.
        Returns :data:`NULL_SPAN` while tracing is disabled.
        """
        if not self.enabled:
            return NULL_SPAN
        if parent is not None and parent.recording:
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif remote is not None:
            trace_id, parent_id = remote
        else:
            implicit = _current_span.get()
            if implicit is not None and implicit.recording:
                trace_id, parent_id = implicit.trace_id, implicit.span_id
            else:
                trace_id, parent_id = _new_id(16), None
        span = Span(self, name, trace_id, _new_id(8), parent_id, attributes)
        with self._lock:
            span._local_root = self._open_trace_locked(trace_id)
        return span

    @contextlib.contextmanager
    def span(self, name: str, parent: "Span | None" = None, **attributes):
        """Context manager: start a span, make it current, end it.

        The yielded span is installed as the context-local parent for
        the ``with`` body, so nested :meth:`span` calls (and spans
        created in tasks spawned inside the body) form a tree without
        explicit plumbing.
        """
        span = self.start_span(name, parent=parent, **attributes)
        if span is NULL_SPAN:
            yield span
            return
        token = _current_span.set(span)
        try:
            yield span
        finally:
            _current_span.reset(token)
            span.end()

    def activate(self, span: "Span | None"):
        """Install ``span`` as the context-local parent; returns a token.

        For call sites that cannot use the :meth:`span` context
        manager (e.g. re-activating a request's root span around its
        handler).  Pass the token to :meth:`deactivate`.
        """
        return _current_span.set(span)

    def deactivate(self, token) -> None:
        """Undo :meth:`activate`."""
        _current_span.reset(token)

    def record_span(self, name: str, duration_s: float,
                    parent: "Span | None" = None, **attributes) -> Span:
        """Record an already-measured span (ends immediately).

        For work measured elsewhere — a candidate annealed in a worker
        process reports its elapsed time home, and the parent records
        it as a child span whose start is back-dated by the duration.
        """
        if not self.enabled:
            return NULL_SPAN
        span = self.start_span(name, parent=parent, **attributes)
        if span is not NULL_SPAN:
            span.start_ts -= float(duration_s)
            span._start -= float(duration_s)
            span.end()
        return span

    # ------------------------------------------------------------ assembly

    def _open_trace_locked(self, trace_id: str) -> bool:
        """Ensure ``trace_id`` is tracked; True if this call opened it."""
        if trace_id in self._open or trace_id in self._finished:
            return False
        self._open[trace_id] = []
        while len(self._open) > self.max_open_traces:
            self._open.popitem(last=False)
        return True

    def _record(self, span: Span) -> None:
        """A span finished: store it, export metrics, write the file."""
        self._observe_metrics(span)
        with self._lock:
            bucket = self._open.get(span.trace_id)
            if bucket is not None:
                if len(bucket) < self.max_spans_per_trace:
                    bucket.append(span)
                # A trace finishes when its local root ends — either a
                # true root (no parent) or the first span this process
                # opened under a remote caller's traceparent.
                if span.parent_id is None or span._local_root:
                    self._finish_trace_locked(span.trace_id)
            if self._trace_file is not None:
                try:
                    self._trace_file.write(
                        json.dumps(span.to_payload(), sort_keys=True) + "\n")
                    self._trace_file.flush()
                except (OSError, ValueError):
                    # A full disk (or a closed file racing a late
                    # span) must never fail the traced request.
                    self._close_file_locked()

    def _observe_metrics(self, span: Span) -> None:
        histogram = self._phase_histogram
        if histogram is not None and span.name in PHASE_SPANS:
            histogram.labels(phase=span.name).observe(span.duration_s)
        if span.name == "search.candidate":
            iterations = span.attributes.get("anneal_iterations")
            if self._anneal_iterations is not None and iterations is not None:
                self._anneal_iterations.observe(float(iterations))
            evaluations = span.attributes.get("anneal_evaluations")
            if self._anneal_evaluations is not None \
                    and evaluations is not None:
                self._anneal_evaluations.observe(float(evaluations))

    def _finish_trace_locked(self, trace_id: str) -> None:
        spans = self._open.pop(trace_id, [])
        self._finished[trace_id] = _assemble_tree(trace_id, spans)
        while len(self._finished) > self.max_traces:
            self._finished.popitem(last=False)

    # ------------------------------------------------------------- queries

    def traces(self) -> "list[dict]":
        """Summaries of the finished traces, newest last."""
        with self._lock:
            return [{"trace_id": tree["trace_id"],
                     "root": tree["root"]["name"] if tree["root"] else None,
                     "start_ts": tree["root"]["start_ts"]
                     if tree["root"] else None,
                     "duration_ms": tree["root"]["duration_ms"]
                     if tree["root"] else None,
                     "n_spans": tree["n_spans"]}
                    for tree in self._finished.values()]

    def trace(self, trace_id: str) -> "dict | None":
        """The full span tree of one trace (finished or still open).

        An open trace (its root span has not ended yet) is assembled
        from whatever spans have finished so far — this is what lets a
        ``detail`` plan response embed its own ``timing`` block while
        the surrounding HTTP span is still running.
        """
        with self._lock:
            tree = self._finished.get(trace_id)
            if tree is not None:
                return tree
            spans = self._open.get(trace_id)
            if spans is None:
                return None
            return _assemble_tree(trace_id, spans, partial=True)


def _assemble_tree(trace_id: str, spans: "list[Span]",
                   partial: bool = False) -> dict:
    """Nest span payloads by ``parent_id`` into one tree payload."""
    payloads = [span.to_payload() for span in spans]
    by_id = {p["span_id"]: p for p in payloads}
    roots = []
    for payload in payloads:
        payload["children"] = payload.get("children", [])
        parent = by_id.get(payload["parent_id"])
        if parent is None:
            roots.append(payload)
        else:
            parent.setdefault("children", []).append(payload)
    for payload in payloads:
        payload["children"].sort(key=lambda c: c["start_ts"])
    roots.sort(key=lambda r: r["start_ts"])
    root = next((r for r in roots if r["parent_id"] is None),
                roots[0] if roots else None)
    orphans = [r for r in roots if r is not root]
    tree = {"trace_id": trace_id, "root": root, "n_spans": len(payloads)}
    if orphans:
        tree["orphans"] = orphans
    if partial:
        tree["partial"] = True
    return tree


#: The process-wide tracer every instrumented module shares.
TRACER = Tracer()
