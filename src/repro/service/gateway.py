"""Async planning gateway: many concurrent clients, one fleet.

A :class:`~repro.service.planner.PlanningService` answers one caller
at a time; a live planning *service* has many — every job of a
training campaign asking "what config do I train with right now",
often the same question at the same moment.  :class:`PlanGateway` is
the asyncio front door over a
:class:`~repro.service.registry.ClusterRegistry` of named services
that absorbs that concurrency without serializing the fleet:

* **coalescing** — concurrent requests with the same fingerprint (and
  the same bandwidth epoch) share one search: the first caller leads,
  the rest await the leader's future and receive the *same*
  :class:`~repro.core.configurator.PipetteResult` object.  The
  coalescing key includes the cluster's bandwidth fingerprint, so a
  request submitted after an elastic event can never be answered by a
  search that started against the pre-event fabric;
* **per-cluster lanes** — each cluster has its own queue and drain
  loop, so a slow search on one cluster never delays answers from its
  siblings.  The lane queue is the only queue in the serving stack and
  coalescing the only in-flight dedup: the service below answers one
  request at a time;
* **bounded backpressure** — each lane admits at most
  ``max_queue_depth`` distinct in-flight requests; beyond that the
  gateway either makes callers *wait* for a slot (default) or
  *rejects* them immediately with :class:`GatewayOverloadedError`;
* **hits on the loop** — :meth:`PlanGateway.plan` first asks the
  cluster's service for a cached answer
  (:meth:`~repro.service.planner.PlanningService.lookup`), which only
  tries the service lock and never waits.  A hit is answered right
  there, before coalescing, admission or the lane; it is never parked
  or rejected by a full lane.  Everything else — misses, and hits on a
  cluster whose lock is busy with a search or an event — takes the
  lane below;
* **one request per drain** — each lane drains its misses one at a
  time on its own thread, through the synchronous
  :meth:`~repro.service.planner.PlanningService.plan`, so the event
  loop keeps accepting clients (and coalescing their requests) while
  searches run, and each caller is answered the moment its own search
  returns.  Lanes share no thread, so busy clusters never wait on
  each other.  Inside each search the shared
  :class:`~repro.service.executor.CandidateExecutor` still fans
  candidate work over its process pool;
* **fenced elastic events** — :meth:`PlanGateway.update_bandwidth` and
  :meth:`PlanGateway.fail_nodes` acquire the lane's fence, so an
  epoch roll lands *between* drains, never under one, and the
  service's own lock makes the adoption atomic;
* **per-client fairness** — each lane's queue is a weighted
  round-robin over per-client sub-queues (:class:`_FairQueue`): a
  chatty client that floods a lane with distinct requests fills *its
  own* sub-queue, and the drain still interleaves the other clients'
  work at their weights, so a quiet client waits for a couple of
  searches instead of the chatty client's whole backlog (see
  ``benchmarks/bench_http.py`` for the measured bound);
* **metrics** — constructed with a
  :class:`~repro.service.metrics.MetricsRegistry`, the gateway exports
  per-cluster request outcomes, plan-latency histograms, lane queue
  depths, and elastic-event counts; the ``GatewayStats`` counters are
  pull-bound, so ``/metrics`` and :attr:`PlanGateway.stats` always
  agree (the catalog lives in ``docs/SERVING.md``).

Use as an async context manager::

    async with PlanGateway(registry) as gateway:
        responses = await asyncio.gather(
            *(gateway.plan(request) for request in requests))
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

from repro.cluster.fabric import BandwidthMatrix
from repro.core.configurator import PipetteResult, RankedConfig
from repro.obs.logs import get_logger
from repro.obs.trace import TRACER
from repro.service.cache import PlanRequest
from repro.service.metrics import MetricsRegistry
from repro.service.planner import (
    ClusterMismatchError,
    PlanningService,
    PlanResponse,
)
from repro.service.registry import ClusterRegistry
from repro.service.replan import DEFAULT_DRIFT_THRESHOLD

_log = get_logger("service.gateway")


class GatewayOverloadedError(RuntimeError):
    """A cluster's lane is full and the gateway's policy is ``reject``."""


@dataclass
class GatewayStats:
    """Operational counters of one :class:`PlanGateway`.

    Attributes:
        submitted: requests answered from the cache on the event loop
            or enqueued onto a lane (coalesced followers do neither and
            do not count here).
        coalesced: requests answered by joining an identical in-flight
            request instead of enqueueing their own.
        rejected: requests refused by the ``reject`` overflow policy.
        batches: drains run on the lane threads, one per request
            answered through a lane; a hit answered on the loop runs
            none.
        answered: requests answered on the loop or by those drains.

    Mutations go through :meth:`bump` and reads
    through :meth:`read`/:meth:`snapshot`, all under one lock: the
    counters move on the event loop while ``/metrics`` scrapes and
    ``/healthz`` render them from other contexts, and a multi-field
    report must never interleave with a mutation (snapshot tearing).
    """

    submitted: int = 0
    coalesced: int = 0
    rejected: int = 0
    batches: int = 0
    answered: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    #: Fields carried by :meth:`snapshot`, in declaration order.
    FIELDS = ("submitted", "coalesced", "rejected", "batches", "answered")

    def bump(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` atomically."""
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def read(self, name: str) -> int:
        """One counter, read under the lock (metrics pull bindings)."""
        with self._lock:
            return getattr(self, name)

    def snapshot(self) -> dict:
        """All counters as one atomically-consistent mapping."""
        with self._lock:
            return {name: getattr(self, name) for name in self.FIELDS}


@dataclass
class GatewayResponse:
    """A plan answer delivered through the gateway.

    Attributes:
        cluster_name: the cluster that produced the plan.
        response: the underlying service answer.  Note that its
            ``elapsed_s`` times the *search's* answer inside the
            drain, which a coalesced follower shares with its leader.
        coalesced: ``True`` when this caller shared an identical
            in-flight request's search instead of submitting its own.
        elapsed_s: this caller's own submit-to-answer wall time (queue
            wait included).  Per-caller accounting must not copy the
            leader's search time onto every follower: a follower that
            joined late reports only the wait it actually experienced.
        trace_id: id of this request's trace when tracing was on
            (``None`` otherwise); a coalesced follower reports its own
            trace, which links to the leader's via the
            ``leader_trace_id`` span attribute.
    """

    cluster_name: str
    response: PlanResponse
    coalesced: bool = False
    elapsed_s: float = 0.0
    trace_id: "str | None" = None

    @property
    def status(self) -> str:
        """``"coalesced"`` for followers, else the service status."""
        return "coalesced" if self.coalesced else self.response.status

    @property
    def best(self) -> RankedConfig | None:
        """Shortcut to the recommended configuration."""
        return self.response.best

    @property
    def result(self) -> PipetteResult | None:
        """Shortcut to the full search result."""
        return self.response.result


class _FairQueue:
    """Weighted round-robin queue over per-client FIFO sub-queues.

    Items enqueue under a client id; :meth:`get_nowait` serves clients
    in rotation, each getting up to its weight of consecutive items
    per visit before the rotation moves on.  Within one client, order
    stays FIFO, so callers that share one client id (or give none)
    are served in strict arrival order.

    Single-event-loop use only (the gateway's); no internal locking.
    """

    def __init__(self, weights: "dict[str, int] | None" = None) -> None:
        self._weights = {str(k): int(v) for k, v in (weights or {}).items()}
        self._queues: "OrderedDict[str, deque]" = OrderedDict()
        self._rotation: "deque[str]" = deque()
        self._credit = 0
        self._size = 0
        self._getters: "deque[asyncio.Future]" = deque()

    def qsize(self) -> int:
        """Items currently queued across all clients."""
        return self._size

    def _weight(self, client: str) -> int:
        return max(1, self._weights.get(client, 1))

    def put_nowait(self, item, client: str = "") -> None:
        """Enqueue ``item`` under ``client``'s sub-queue."""
        queue = self._queues.get(client)
        if queue is None:
            queue = deque()
            self._queues[client] = queue
            self._rotation.append(client)
            if len(self._rotation) == 1:
                self._credit = self._weight(client)
        queue.append(item)
        self._size += 1
        self._wake_next()

    def get_nowait(self):
        """The next item by weighted round-robin (or ``QueueEmpty``)."""
        if self._size == 0:
            raise asyncio.QueueEmpty
        client = self._rotation[0]
        queue = self._queues[client]
        item = queue.popleft()
        self._size -= 1
        self._credit -= 1
        if not queue:
            # An idle client leaves the rotation entirely — it must
            # not be visited (or keep credit) while it has nothing
            # queued, and it re-enters at the back when it returns.
            del self._queues[client]
            self._rotation.popleft()
            if self._rotation:
                self._credit = self._weight(self._rotation[0])
        elif self._credit <= 0:
            self._rotation.rotate(-1)
            self._credit = self._weight(self._rotation[0])
        return item

    async def get(self):
        """Wait for and return the next item (round-robin order)."""
        while self._size == 0:
            getter = asyncio.get_running_loop().create_future()
            self._getters.append(getter)
            try:
                await getter
            except BaseException:
                getter.cancel()
                try:
                    self._getters.remove(getter)
                except ValueError:
                    pass
                if self._size and not getter.cancelled():
                    # This getter was woken and then cancelled: pass
                    # the wakeup on so the put is not lost.
                    self._wake_next()
                raise
        return self.get_nowait()

    def _wake_next(self) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if not getter.done():
                getter.set_result(None)
                break


@dataclass
class _Inflight:
    """One in-flight leader: its shared future plus trace identity.

    The trace id travels with the future so a coalescing follower can
    link its own trace to the leader's without awaiting it first.
    """

    future: asyncio.Future
    trace_id: "str | None" = None


class _Lane:
    """Per-cluster queue, admission bound, fence, drain task and thread.

    The lane's drains and its fenced events run on its one ``thread``,
    so a search on one cluster never waits for a thread another
    cluster's search holds.
    """

    def __init__(self, name: str, max_depth: int,
                 weights: "dict[str, int] | None" = None) -> None:
        self.name = name
        self.queue = _FairQueue(weights)
        self.slots = asyncio.Semaphore(max_depth)
        self.fence = asyncio.Lock()
        self.task: "asyncio.Task | None" = None
        self.thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"pipette-lane-{name}")

    async def run(self, fn):
        """Run blocking service work on this lane's thread."""
        return await asyncio.get_running_loop().run_in_executor(
            self.thread, fn)


class _GatewayInstruments:
    """The gateway's exported series on one metrics registry.

    ``GatewayStats`` counters are pull-bound (``/metrics`` reads the
    same integers :attr:`PlanGateway.stats` holds); per-request
    outcomes and latency are event-driven because no stats object
    records them.
    """

    def __init__(self, metrics: MetricsRegistry,
                 stats: GatewayStats) -> None:
        self.requests = metrics.counter(
            "pipette_requests_total",
            "Plan requests answered through the gateway, by cluster "
            "and outcome (hit/miss/coalesced/error/rejected/failed).",
            ("cluster", "outcome"))
        self.latency = metrics.histogram(
            "pipette_plan_latency_seconds",
            "Per-caller submit-to-answer wall time through the "
            "gateway, queue wait included, by cluster and outcome "
            "(hit/miss/coalesced/error).",
            ("cluster", "outcome"))
        self.queue_depth = metrics.gauge(
            "pipette_lane_queue_depth",
            "Requests queued on the cluster's lane, not yet being "
            "drained.",
            ("cluster",))
        self.events = metrics.counter(
            "pipette_events_total",
            "Elastic events applied through the gateway, by kind "
            "(bandwidth/failure).",
            ("cluster", "kind"))
        self.retired = metrics.counter(
            "pipette_plans_retired_total",
            "Cached plans retired by elastic events.",
            ("cluster",))
        for name in ("submitted", "coalesced", "rejected", "batches",
                     "answered"):
            metrics.counter(
                f"pipette_gateway_{name}_total",
                f"GatewayStats.{name}, exported live.",
            ).bind(partial(stats.read, name))


class PlanGateway:
    """Asyncio front door over a :class:`ClusterRegistry`.

    Args:
        registry: the fleet to serve (one named cluster per lane).
        max_queue_depth: distinct in-flight requests admitted per
            cluster lane before the overflow policy applies.
        overflow: ``"wait"`` parks over-limit callers until a slot
            frees (backpressure), ``"reject"`` fails them fast with
            :class:`GatewayOverloadedError` (load shedding).
        client_weights: round-robin weight per ``client_id`` (default
            1 each); a weight-3 client gets up to three consecutive
            items per rotation visit.
        metrics: a :class:`~repro.service.metrics.MetricsRegistry` to
            export gateway series on; ``None`` disables metrics.
    """

    def __init__(self, registry: ClusterRegistry, *,
                 max_queue_depth: int = 64, overflow: str = "wait",
                 client_weights: "dict[str, int] | None" = None,
                 metrics: MetricsRegistry | None = None) -> None:
        if overflow not in ("wait", "reject"):
            raise ValueError(f"unknown overflow policy {overflow!r}; "
                             "choose 'wait' or 'reject'")
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}")
        for client, weight in (client_weights or {}).items():
            if int(weight) < 1:
                raise ValueError(
                    f"client weight must be >= 1, got {weight} "
                    f"for {client!r}")
        self.registry = registry
        self.max_queue_depth = int(max_queue_depth)
        self.overflow = overflow
        self.client_weights = dict(client_weights or {})
        self.stats = GatewayStats()
        self.metrics = metrics
        self._instruments = None if metrics is None else \
            _GatewayInstruments(metrics, self.stats)
        self._lanes: "dict[str, _Lane]" = {}
        self._inflight: "dict[tuple[str, str, str], _Inflight]" = {}
        self._closed = False

    # ------------------------------------------------------------ planning

    async def plan(self, request: PlanRequest,
                   cluster: str | None = None,
                   client_id: str | None = None) -> GatewayResponse:
        """Answer one request; safe to call from many tasks at once.

        The request goes to the ``cluster`` lane when named, else to
        the cluster :meth:`ClusterRegistry.route` matches by spec.  An
        identical request already in flight on the same cluster *and
        the same bandwidth epoch* is coalesced — this caller awaits
        the in-flight search and shares its result.  A cache hit is
        answered before either, on the event loop, unless the
        cluster's service is busy.
        Otherwise the request is enqueued on its cluster's lane,
        subject to the overflow policy, and answered as soon as the
        lane has drained it.  A request built for a cluster that has since
        shrunk raises :class:`~repro.service.planner.ClusterMismatchError`
        here, like :meth:`PlanningService.plan`; a search that fails
        with ``ValueError``/``RuntimeError`` comes back as an
        ``"error"`` response instead.

        ``client_id`` is *transport* identity, not plan identity: it
        selects the caller's fair-queue sub-queue (and round-robin
        weight) but is deliberately absent from the request
        fingerprint, so two clients asking the same question still
        share one cache entry and coalesce onto one search.
        """
        answer = self.plan_nowait(request, cluster, client_id)
        if isinstance(answer, GatewayResponse):
            return answer
        return await answer

    def plan_nowait(self, request: PlanRequest,
                    cluster: str | None = None,
                    client_id: str | None = None):
        """:meth:`plan` up to its first wait: a hit now, else an awaitable.

        Routes the request, hashes it and looks it up on the event loop.
        A same-epoch hit returns its :class:`GatewayResponse` at once,
        with no task and no coroutine; anything else returns the
        coroutine that coalesces or queues the request and resolves to
        its answer, which the caller must await.  A closed gateway or
        an unknown cluster raises here.  An unpinned fan-out answers
        its hits through this without a task per cluster.
        """
        if self._closed:
            raise RuntimeError("gateway is closed")
        t0 = time.perf_counter()
        name = cluster if cluster is not None else self.registry.route(request)
        fingerprint = request.fingerprint()
        gspan = TRACER.start_span("gateway.plan", cluster=name,
                                  fingerprint=fingerprint)
        trace_id = gspan.trace_id if gspan.recording else None
        token = TRACER.activate(gspan) if gspan.recording else None
        try:
            # A hit is answered here on the loop, never parked or
            # rejected: the lookup only tries the service lock, so a
            # busy cluster sends even its hits down the lane.
            response = self.registry.service(name).lookup(
                request, gspan if gspan.recording else None)
            if response is None:
                return self._enqueue(request, name, fingerprint, gspan, t0,
                                     client_id)
            self.stats.bump("submitted")
            self.stats.bump("answered")
            answer = self._answered(name, response, t0, trace_id)
        except BaseException:
            gspan.end()
            raise
        finally:
            if token is not None:
                TRACER.deactivate(token)
        gspan.end()
        return answer

    async def _enqueue(self, request: PlanRequest, name: str,
                       fingerprint: str, gspan, t0: float,
                       client_id: str | None) -> GatewayResponse:
        """:meth:`plan` after a miss: coalesce or queue, then answer.

        Owns ``gspan``, the request's open ``gateway.plan`` span: it is
        the context's current span while the request waits, and ends
        with the answer.
        """
        trace_id = gspan.trace_id if gspan.recording else None
        token = TRACER.activate(gspan) if gspan.recording else None
        try:
            while True:
                service = self.registry.service(name)
                # The epoch in the key is what fences coalescing across
                # elastic events: post-event submitters get a fresh key,
                # hence a fresh search against the post-event matrix —
                # never the pre-event leader's plan.
                key = (name, fingerprint, service.bandwidth_fp)
                existing = self._inflight.get(key)
                if existing is not None:
                    self.stats.bump("coalesced")
                    gspan.set_attribute("coalesced", True)
                    if existing.trace_id is not None:
                        gspan.set_attribute("leader_trace_id",
                                            existing.trace_id)
                    try:
                        response = await asyncio.shield(existing.future)
                    except asyncio.CancelledError:
                        if existing.future.cancelled():
                            # The leader was cancelled before its request
                            # was enqueued; this follower retries as the
                            # new leader instead of hanging on a future
                            # nobody will resolve.
                            self.stats.bump("coalesced", -1)
                            gspan.set_attribute("coalesced", False)
                            continue
                        raise  # this caller itself was cancelled
                    except BaseException:
                        self._record(name, "failed", None)
                        raise
                    return self._answered(name, response, t0, trace_id,
                                          coalesced=True)
                lane = self._lane(name)
                future = asyncio.get_running_loop().create_future()
                self._inflight[key] = _Inflight(future, trace_id)
                try:
                    if self.overflow == "reject" and lane.slots.locked():
                        self.stats.bump("rejected")
                        self._record(name, "rejected", None)
                        raise GatewayOverloadedError(
                            f"cluster {name!r} already has "
                            f"{self.max_queue_depth} requests in flight and "
                            "the overflow policy is 'reject'; retry later or "
                            "raise max_queue_depth")
                    await lane.slots.acquire()
                except BaseException:
                    entry = self._inflight.get(key)
                    if entry is not None and entry.future is future:
                        del self._inflight[key]
                    # Wake any follower already coalesced onto this
                    # never-enqueued future so it can re-lead.
                    future.cancel()
                    raise
                # The wait span ends when the drain picks the item up;
                # it parents to this caller's gateway span explicitly
                # because the drain task has its own (unrelated)
                # context.
                qspan = TRACER.start_span("queue.wait", parent=gspan,
                                          cluster=name)
                lane.queue.put_nowait(
                    (request, key, future, qspan, gspan),
                    "" if client_id is None else str(client_id))
                self.stats.bump("submitted")
                try:
                    # Shielded so a cancelled leader does not cancel the
                    # shared future out from under coalesced followers.
                    response = await asyncio.shield(future)
                except asyncio.CancelledError:
                    raise
                except BaseException:
                    self._record(name, "failed", None)
                    raise
                return self._answered(name, response, t0, trace_id)
        finally:
            if token is not None:
                TRACER.deactivate(token)
            gspan.end()

    def _answered(self, name: str, response: PlanResponse, t0: float,
                  trace_id: "str | None",
                  coalesced: bool = False) -> GatewayResponse:
        """Count, log and wrap one answer delivered to its caller."""
        outcome = "coalesced" if coalesced else response.status
        self._record(name, outcome, t0)
        elapsed = time.perf_counter() - t0
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("plan answered", extra={
                "cluster": name, "outcome": outcome,
                "elapsed_ms": round(elapsed * 1000, 3)})
        return GatewayResponse(cluster_name=name, response=response,
                               coalesced=coalesced, elapsed_s=elapsed,
                               trace_id=trace_id)

    def _record(self, cluster: str, outcome: str,
                t0: "float | None") -> None:
        """Count one answered (or refused) request on the metrics."""
        if self._instruments is None:
            return
        self._instruments.requests.labels(cluster=cluster,
                                          outcome=outcome).inc()
        if t0 is not None:
            self._instruments.latency.labels(
                cluster=cluster, outcome=outcome).observe(
                    time.perf_counter() - t0)

    # ------------------------------------------------------------- elastic

    async def update_bandwidth(self, name: str,
                               new_bandwidth: BandwidthMatrix,
                               drift_threshold: float =
                               DEFAULT_DRIFT_THRESHOLD) -> int:
        """Adopt a re-profiled matrix on one cluster, fenced.

        Waits for the named lane's in-flight drain to finish, then
        rolls the epoch before the next drain starts — so every
        response handed out was searched against a matrix its epoch
        actually trusted.  Returns the number of retired plans.
        """
        with TRACER.span("event.bandwidth", cluster=name) as span:
            lane = self._lane(name)
            async with lane.fence:
                retired = await lane.run(partial(
                    self.registry.service(name).update_bandwidth,
                    new_bandwidth, drift_threshold=drift_threshold))
            span.set_attribute("retired", retired)
        self._record_event(name, "bandwidth", retired)
        _log.info("bandwidth event", extra={"cluster": name,
                                            "retired": retired})
        return retired

    async def fail_nodes(self, name: str, *failed_nodes: int) -> int:
        """Apply a node failure to one cluster, fenced like above.

        Requests already queued for the pre-failure cluster raise
        :class:`~repro.service.planner.ClusterMismatchError` to their
        callers; post-event requests (built against the survivor
        cluster) plan fresh.  Returns the number of retired plans.
        """
        with TRACER.span("event.failure", cluster=name,
                         failed_nodes=list(failed_nodes)) as span:
            lane = self._lane(name)
            async with lane.fence:
                retired = await lane.run(partial(
                    self.registry.service(name).apply_failure,
                    *failed_nodes))
            span.set_attribute("retired", retired)
        self._record_event(name, "failure", retired)
        _log.info("node failure", extra={"cluster": name,
                                         "failed_nodes": list(failed_nodes),
                                         "retired": retired})
        return retired

    def _record_event(self, cluster: str, kind: str, retired: int) -> None:
        if self._instruments is None:
            return
        self._instruments.events.labels(cluster=cluster, kind=kind).inc()
        self._instruments.retired.labels(cluster=cluster).inc(retired)

    # ------------------------------------------------------------ lifecycle

    @property
    def inflight(self) -> int:
        """Distinct (cluster, fingerprint, epoch) requests in flight.

        What a graceful drain waits on: :meth:`aclose` answers exactly
        these before stopping the lanes, so a supervisor can log how
        much work a terminating worker still owes.
        """
        return len(self._inflight)

    async def aclose(self) -> None:
        """Answer everything in flight, then stop the lanes."""
        if self._closed:
            return
        self._closed = True
        pending = [entry.future for entry in self._inflight.values()]
        if pending:
            await asyncio.gather(*(asyncio.shield(f) for f in pending),
                                 return_exceptions=True)
        for lane in self._lanes.values():
            if lane.task is not None:
                lane.task.cancel()
        tasks = [lane.task for lane in self._lanes.values()
                 if lane.task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for lane in self._lanes.values():
            lane.thread.shutdown(wait=True)

    async def __aenter__(self) -> "PlanGateway":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # ------------------------------------------------------------ plumbing

    def _lane(self, name: str) -> _Lane:
        self.registry.service(name)  # unknown names fail fast
        lane = self._lanes.get(name)
        if lane is None:
            lane = _Lane(name, self.max_queue_depth,
                         weights=self.client_weights)
            lane.task = asyncio.get_running_loop().create_task(
                self._drain_lane(lane))
            self._lanes[name] = lane
            if self._instruments is not None:
                self._instruments.queue_depth.labels(
                    cluster=name).set_function(lane.queue.qsize)
        return lane

    async def _drain_lane(self, lane: _Lane) -> None:
        """One cluster's drain loop: one request per step, fenced.

        Each step takes the next item in the lane queue's weighted
        round-robin order, holds the fence while that request's
        :meth:`PlanningService.plan` runs on the lane's thread, and
        answers its caller at once.

        The loop must outlive any single request: whatever goes wrong
        is delivered to that request's caller, and the lane keeps
        draining — a dead lane would strand every later request on
        this cluster in an unanswerable queue.  Only cancellation
        (gateway shutdown) ends the loop.
        """
        while True:
            request, key, future, qspan, parent = await lane.queue.get()
            try:
                async with lane.fence:
                    # Queue wait ends here: the rest of the request's
                    # life is the service's spans, which parent to the
                    # caller's gateway span explicitly.
                    qspan.end()
                    self.stats.bump("batches")
                    response = await lane.run(partial(
                        _answer, self.registry.service(lane.name),
                        request, parent))
            except asyncio.CancelledError:
                raise  # gateway shutdown: aclose already waited for futures
            except BaseException as exc:
                # A stale request (ClusterMismatchError), or an
                # unexpected failure such as a durable cache whose disk
                # filled, fails only this caller.
                self._resolve(lane, key, future, exc=exc)
            else:
                self._resolve(lane, key, future, response=response)
                self.stats.bump("answered")

    def _resolve(self, lane: _Lane, key, future,
                 response: PlanResponse | None = None,
                 exc: BaseException | None = None) -> None:
        """Answer one enqueued item and free its lane slot (once)."""
        entry = self._inflight.get(key)
        if entry is not None and entry.future is future:
            del self._inflight[key]
        if future.done():
            return
        lane.slots.release()
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(response)


def _answer(service: PlanningService, request: PlanRequest,
            parent) -> PlanResponse:
    """One drained request, run on its lane's thread.

    A failed search (``ValueError``/``RuntimeError``) becomes an
    ``"error"`` response; a stale request's
    :class:`ClusterMismatchError`, and anything else, raises to the
    caller.
    """
    t0 = time.perf_counter()
    try:
        return service.plan(request,
                            trace=parent if parent.recording else None)
    except ClusterMismatchError:
        raise
    except (ValueError, RuntimeError) as exc:
        return PlanResponse(
            request=request, fingerprint=request.fingerprint(), result=None,
            status="error", elapsed_s=time.perf_counter() - t0,
            error=str(exc))
