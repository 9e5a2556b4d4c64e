"""The planning service: Pipette behind a request/response front door.

One :class:`PlanningService` owns everything that is expensive to
acquire and slow to change for a cluster — the profiled bandwidth
matrix, the per-model compute profiles, the fitted memory estimator,
a worker pool — and answers :class:`~repro.service.cache.PlanRequest`\\ s
against that state:

* :meth:`PlanningService.plan` is the one answering routine: identical
  requests are answered from the LRU plan cache
  (:mod:`repro.service.cache`) through :meth:`PlanningService.lookup`,
  and cache misses run Algorithm 1, optionally fanned over the
  service's :class:`~repro.service.executor.CandidateExecutor`.  The
  gateway calls the same non-blocking lookup on its event loop, so a
  hit need not queue;
* a re-profiled matrix that drifted beyond the threshold, or a node
  failure, rolls the bandwidth epoch and retires stale plans
  (:meth:`PlanningService.update_bandwidth`,
  :meth:`PlanningService.replan`).

Every warm anneal — a template answer to a cache miss, and both
branches of :func:`replan` — runs through the one :func:`polish`.

Queueing and in-flight dedup of concurrent callers are the
:class:`~repro.service.gateway.PlanGateway`'s job; the service answers
one request at a time.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, replace

from repro.cluster.fabric import BandwidthMatrix
from repro.cluster.topology import ClusterSpec
from repro.core.annealing import SAResult, anneal_mapping
from repro.core.configurator import (
    PipetteConfigurator,
    PipetteOptions,
    PipetteResult,
    RankedConfig,
    SearchContext,
    candidate_kernel,
)
from repro.core.memory_estimator import MemoryEstimator
from repro.core.templates import (
    PipelineTemplate,
    PipelineTemplateGenerator,
    TemplateLibrary,
)
from repro.model.transformer import TransformerConfig
from repro.obs.logs import get_logger
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import TRACER, Span
from repro.parallel.mapping import Mapping
from repro.profiling.profile_run import ComputeProfile, profile_compute
from repro.service.cache import PlanCache, PlanRequest, \
    canonical_memory_limit
from repro.service.executor import CandidateExecutor
from repro.service.replan import (
    DEFAULT_DRIFT_THRESHOLD,
    ClusterEvent,
    ReplanReport,
    _warm_candidates,
    best_start,
    default_warm_sa,
    drift_exceeds,
    post_event_world,
    template_fits,
)

_log = get_logger("service.planner")


class ClusterMismatchError(ValueError):
    """A request built for a cluster spec its service does not plan for.

    Typically a request that outlived a node failure: the service has
    shrunk since the caller built it.  A ``ValueError``, so it maps to
    HTTP 400; the gateway tells it apart from a failed search, which
    comes back as an ``"error"`` response instead.
    """


@dataclass
class PlanResponse:
    """Answer to one request.

    Attributes:
        request: the request being answered.
        fingerprint: its :meth:`PlanRequest.fingerprint` (the cache key).
        result: the finished plan (``None`` when ``status == "error"``).
        status: how it was obtained — ``"hit"`` (served from cache),
            ``"miss"`` (searched now), or ``"error"`` (the search
            failed; only the gateway builds these).
        elapsed_s: time this answer took.
        error: what went wrong, for ``"error"`` responses.
    """

    request: PlanRequest
    fingerprint: str
    result: PipetteResult | None
    status: str
    elapsed_s: float
    error: str | None = None

    @property
    def best(self) -> RankedConfig | None:
        """Shortcut to the recommended configuration."""
        return self.result.best if self.result is not None else None


# ------------------------------------------------------------- warm paths


def polish(ctx: SearchContext, leader: RankedConfig,
           starts: "list[Mapping]", seed: int,
           span: Span) -> "tuple[RankedConfig, SAResult, int]":
    """Anneal ``leader`` on ``ctx.sa`` from the best of ``starts``.

    The start is picked by
    :func:`~repro.service.replan.best_start`.  When ``span`` records,
    a ``"warm-start"`` flight recorder rides the anneal and its payload
    and exit reason land on ``span``.  Returns the refined leader, the
    anneal's result and the index of the chosen start.
    """
    kernel = candidate_kernel(ctx, leader.config)
    pick = best_start(kernel, starts)
    recorder = FlightRecorder(provenance="warm-start") \
        if span.recording else None
    result = anneal_mapping(starts[pick], kernel, ctx.sa.with_seed(seed),
                            recorder=recorder)
    if recorder is not None:
        span.set_attribute("flight", recorder.to_payload())
        span.set_attribute("exit_reason", result.exit_reason)
    return leader.refined(result), result, pick


def replan(cluster: ClusterSpec, model: TransformerConfig,
           bandwidth: BandwidthMatrix, profile: ComputeProfile,
           previous: RankedConfig, event: ClusterEvent,
           memory_estimator: MemoryEstimator | None = None,
           options: PipetteOptions | None = None,
           new_bandwidth: BandwidthMatrix | None = None,
           memory_limit_bytes: float | None = None,
           micro_batches: "list[int] | None" = None,
           schedules: "tuple[str, ...] | list[str] | None" = None,
           executor=None, run_cold: bool = True,
           template: PipelineTemplate | None = None) -> ReplanReport:
    """Re-plan after a cluster event, warm-starting from ``previous``.

    :func:`polish` anneals the leader — a fitting template, else the
    best of a naive re-rank search — from its best warm start.

    Args:
        cluster: the cluster ``previous`` was planned for.
        bandwidth: the matrix ``previous`` was searched against.
        previous: the plan in force when the event happened.
        event: what changed; see
            :func:`~repro.service.replan.post_event_world` for the
            post-event world and ``new_bandwidth``.  The polish anneals
            on :func:`~repro.service.replan.default_warm_sa`.
        micro_batches: microbatch restriction of the original request,
            honored by both the warm re-ranking and the cold search.
        schedules: pipeline-schedule restriction of the original
            request, honored the same way.
        executor: optional :class:`~repro.service.executor.CandidateExecutor`
            for both the warm re-ranking and the cold search.
        run_cold: also run the full cold search for comparison.
        template: precomputed pipeline template for the surviving node
            count (a :meth:`~repro.core.templates.TemplateLibrary.lookup`
            hit).  On a fitting node-failure template the warm path
            skips the re-rank search entirely — the template
            instantiates onto the survivors and only the
            slot-assignment polish runs (``warm_source="template"``).
            A template that does not fit the post-event world falls
            back to the re-rank path.
    """
    options = options or PipetteOptions()
    new_cluster, new_bw = post_event_world(cluster, bandwidth, event,
                                           new_bandwidth)
    global_batch = previous.config.global_batch

    def search(search_options: PipetteOptions) -> PipetteResult:
        return PipetteConfigurator(
            new_cluster, model, new_bw, profile, memory_estimator,
            options=search_options,
        ).search(global_batch, memory_limit_bytes=memory_limit_bytes,
                 micro_batches=micro_batches, schedules=schedules,
                 executor=executor)

    # The whole re-plan is one span tagged with the triggering event,
    # so failure-recovery latency is directly measurable per event
    # kind in traces and the phase-latency histogram.
    with TRACER.span("replan", event_kind=event.kind,
                     failed_nodes=list(event.failed_nodes),
                     event_day=event.day) as replan_span:
        t0 = time.perf_counter()
        if (template is not None and event.kind == "node_failure"
                and template_fits(template, new_cluster, global_batch)):
            with TRACER.span("replan.template",
                             n_nodes=template.n_nodes,
                             schedule=template.config.schedule):
                leader = template.instantiate(new_cluster)
            # The previous plan's mappings are already folded into the
            # library, so the template's own placements seed the polish.
            candidates = [(m, "template")
                          for m in (leader.mapping, *leader.portfolio)]
        else:
            with TRACER.span("replan.rerank"):
                naive = search(replace(options, use_worker_dedication=False))
            if naive.best is None:
                raise RuntimeError("no feasible configuration on the "
                                   "post-event cluster; cannot re-plan")
            leader = naive.best
            candidates = _warm_candidates(event, previous, leader,
                                          new_cluster)
        ctx = SearchContext(cluster=new_cluster, model=model,
                            bandwidth=new_bw, profile=profile,
                            memory_estimator=memory_estimator,
                            sa=default_warm_sa(options.sa))
        with TRACER.span("replan.warm_anneal") as warm_span:
            warm, sa_result, pick = polish(
                ctx, leader, [m for m, _ in candidates], options.seed,
                warm_span)
        warm_source = candidates[pick][1]
        warm_search_s = time.perf_counter() - t0
        report = ReplanReport(
            event=event, cluster=new_cluster, bandwidth=new_bw,
            previous=previous, warm=warm,
            warm_start_latency_s=sa_result.initial_value,
            warm_search_s=warm_search_s,
            warm_source=warm_source,
        )
        if run_cold:
            with TRACER.span("replan.cold_search"):
                cold_result = search(options)
            report.cold = cold_result.best
            report.cold_search_s = cold_result.total_s
            report.cold_result = cold_result
        replan_span.set_attribute("warm_search_s", warm_search_s)
        replan_span.set_attribute("warm_source", warm_source)
        return report


class PlanningService:
    """A persistent planner for one profiled cluster.

    Args:
        cluster: the cluster this service plans for.
        bandwidth: its profiled matrix (Algorithm 1, line 1).
        memory_estimator: fitted estimator shared by all requests
            (the paper trains it once per cluster); ``None`` disables
            the memory check, and a request carrying a memory limit is
            then refused with ``ValueError`` rather than answered
            unchecked.
        executor: candidate executor for parallel search; ``None``
            searches serially.
        cache: plan store; defaults to a fresh 128-entry LRU.
        profile_seed: seed of lazily collected compute profiles.

    The service is safe for concurrent use.  One reentrant lock
    serializes every entry point that reads or mutates service state —
    cache, profiles, cluster/bandwidth epoch — so a plan answered in
    one thread can never interleave with an elastic event (or a second
    plan) in another.  Searches run *under* the lock on purpose: a
    cluster answers one request at a time (cross-cluster concurrency
    is the gateway's job), and an epoch roll midway through a search
    could otherwise hand out a plan computed against a matrix the
    service no longer trusts.  :meth:`lookup` only tries the lock, so
    an event loop asking for a cached answer never waits behind a
    search.
    """

    def __init__(self, cluster: ClusterSpec, bandwidth: BandwidthMatrix,
                 memory_estimator: MemoryEstimator | None = None,
                 executor: CandidateExecutor | None = None,
                 cache: PlanCache | None = None,
                 profile_seed: int = 0) -> None:
        if bandwidth.n_gpus != cluster.n_gpus:
            raise ValueError(
                f"bandwidth matrix covers {bandwidth.n_gpus} GPUs but the "
                f"cluster has {cluster.n_gpus}"
            )
        self.cluster = cluster
        self.bandwidth = bandwidth
        self.bandwidth_fp = bandwidth.fingerprint()
        self.memory_estimator = memory_estimator
        self.executor = executor
        # ``cache or PlanCache()`` would discard an *empty* caller
        # cache (len() == 0 is falsy) — fatal for a durable cache that
        # happens to start empty.
        self.cache = cache if cache is not None else PlanCache()
        self.profile_seed = profile_seed
        self._profiles: "dict[TransformerConfig, ComputeProfile]" = {}
        self._submitted = 0
        # Where re-plan warm starts came from (ReplanReport.warm_source).
        self._warm_sources = {"template": 0, "best": 0, "portfolio": 0,
                              "cold": 0}
        # Elastic template library (None until warmed) and its lookup
        # outcomes, exported as pipette_template_lookups_total.
        self._template_library: TemplateLibrary | None = None
        self._template_lookups = {"hit": 0, "miss": 0}
        self._lock = threading.RLock()

    # ------------------------------------------------------------- profiles

    def profile_for(self, model: TransformerConfig) -> ComputeProfile:
        """The (cached) compute profile of ``model`` on this cluster."""
        with self._lock:
            profile = self._profiles.get(model)
            if profile is None:
                profile = profile_compute(model, self.cluster,
                                          seed=self.profile_seed)
                self._profiles[model] = profile
            return profile

    # ------------------------------------------------------------ requests

    def request(self, model: TransformerConfig, global_batch: int,
                **kwargs) -> PlanRequest:
        """Convenience constructor bound to this service's cluster."""
        self._check_memory_limit(kwargs.get("memory_limit_bytes"))
        return PlanRequest(cluster=self.cluster, model=model,
                           global_batch=global_batch, **kwargs)

    def _check_memory_limit(self, memory_limit_bytes) -> None:
        """Refuse a memory limit this service cannot check.

        Without an estimator every candidate passes the memory check
        (Algorithm 1, line 7), so a limit would be silently ignored.
        A limit :func:`~repro.service.cache.canonical_memory_limit`
        refuses is refused as well.
        """
        canonical_memory_limit(memory_limit_bytes)
        if memory_limit_bytes is not None and self.memory_estimator is None:
            raise ValueError(
                "memory_limit_bytes needs a memory estimator, but this "
                f"service for cluster {self.cluster.name!r} has none; "
                "the limit cannot be checked")

    def plan(self, request: PlanRequest,
             trace: "Span | None" = None) -> PlanResponse:
        """Answer one request from cache or by searching.

        Errors raise: a request built for another cluster spec raises
        :class:`ClusterMismatchError`, and a failed search its own
        ``ValueError``/``RuntimeError``.  ``trace`` optionally parents
        the answer's spans to a caller's span — the gateway answers on
        a pool thread, where context-local parenting cannot follow.  A
        memory limit on a service without an estimator raises
        ``ValueError`` before anything is counted, cached or searched.
        """
        self._check_memory_limit(request.memory_limit_bytes)
        with self._lock:
            response = self.lookup(request, trace)
            if response is not None:
                return response
            if request.cluster != self.cluster:
                raise ClusterMismatchError(
                    f"request is for cluster {request.cluster.name!r} "
                    f"({request.cluster.n_nodes} nodes) but this service "
                    f"plans for {self.cluster.name!r} "
                    f"({self.cluster.n_nodes} nodes); searches run against "
                    "this service's profiled matrix, so the specs must "
                    "match exactly"
                )
            self._submitted += 1
            t0 = time.perf_counter()
            fingerprint = request.fingerprint()
            span = TRACER.start_span("plan.cache_lookup", parent=trace,
                                     fingerprint=fingerprint)
            self.cache.miss(fingerprint, self.bandwidth_fp)
            span.set_attribute("outcome", "miss").end()
            with TRACER.span("plan.search", parent=trace,
                             fingerprint=fingerprint,
                             cluster=self.cluster.name):
                result = self._search(request)
            self.cache.put(fingerprint, self.bandwidth_fp, result)
            return self._answered(request, fingerprint, result, "miss", t0,
                                  trace)

    def lookup(self, request: PlanRequest,
               trace: "Span | None" = None) -> PlanResponse | None:
        """Answer ``request`` from the cache without ever waiting.

        The one cache lookup: :meth:`plan` runs it first, and the
        gateway runs it on the event loop before it queues anything.
        It only tries the service lock.  A same-epoch hit is answered
        and counted exactly as :meth:`plan` counts one, with one
        ``plan.cache_lookup`` span.  A miss, a stale entry, a request
        for another cluster spec, a memory limit this service cannot
        check or a lock held by a running search or event returns
        ``None`` with no side effect; :meth:`plan` then does the
        accounting, or refuses the request.
        """
        if not self._lock.acquire(blocking=False):
            return None
        try:
            if request.cluster != self.cluster or (
                    request.memory_limit_bytes is not None
                    and self.memory_estimator is None):
                return None
            t0 = time.perf_counter()
            fingerprint = request.fingerprint()
            result = self.cache.hit(fingerprint, self.bandwidth_fp)
            if result is None:
                return None
            self._submitted += 1
            TRACER.record_span("plan.cache_lookup", time.perf_counter() - t0,
                               parent=trace, fingerprint=fingerprint,
                               outcome="hit")
            return self._answered(request, fingerprint, result, "hit", t0,
                                  trace)
        finally:
            self._lock.release()

    def _answered(self, request: PlanRequest, fingerprint: str,
                  result: PipetteResult, status: str, t0: float,
                  trace: "Span | None") -> PlanResponse:
        """Log one answer and wrap it as a :class:`PlanResponse`."""
        if _log.isEnabledFor(logging.DEBUG):
            # A pool thread has no context-local span, so the join key
            # is spelled out from the caller's own trace.
            extra = {"cluster": self.cluster.name, "status": status,
                     "elapsed_ms":
                         round((time.perf_counter() - t0) * 1000, 3)}
            if trace is not None and trace.recording:
                extra["trace_id"] = trace.trace_id
            _log.debug("request answered", extra=extra)
        return PlanResponse(request=request, fingerprint=fingerprint,
                            result=result, status=status,
                            elapsed_s=time.perf_counter() - t0)

    def _search(self, request: PlanRequest) -> PipetteResult:
        if request.options.use_worker_dedication:
            # A warmed template library answers covered requests
            # without running Algorithm 1: instantiate the
            # precomputed leader and polish its slot assignment
            # against the *live* fabric.  This is the fast path a
            # post-failure plan request takes once the service has
            # shrunk to a covered node count.
            template = self._lookup_template(request, self.cluster.n_nodes)
            if template is not None:
                return self._answer_from_template(request, template)
        configurator = PipetteConfigurator(
            self.cluster, request.model, self.bandwidth,
            self.profile_for(request.model), self.memory_estimator,
            options=request.options,
        )
        micro = list(request.micro_batches) \
            if request.micro_batches is not None else None
        return configurator.search(
            request.global_batch,
            memory_limit_bytes=request.memory_limit_bytes,
            micro_batches=micro,
            schedules=request.schedules,
            executor=self.executor,
        )

    # ------------------------------------------------------------ templates

    @property
    def template_library(self) -> TemplateLibrary | None:
        """The installed elastic template library (``None`` until warmed).

        Deliberately lock-free: :meth:`plan` holds the service lock for
        the whole of every search, and ``/healthz`` reads this property
        per cluster — taking the lock here would queue liveness probes
        behind cache-miss searches.  A single attribute read is atomic
        under the GIL, and installs swap the whole reference, so the
        worst a racing reader sees is the previous complete library.
        """
        return self._template_library

    def set_template_library(self,
                             library: TemplateLibrary | None) -> None:
        """Install (or clear) the elastic template library.

        The library must describe this service's node family — same
        GPUs per node — or lookups could instantiate geometrically
        impossible mappings.
        """
        with self._lock:
            if library is not None \
                    and library.gpus_per_node != self.cluster.gpus_per_node:
                raise ValueError(
                    f"library was generated for {library.gpus_per_node} "
                    f"GPUs/node but this cluster has "
                    f"{self.cluster.gpus_per_node}"
                )
            self._template_library = library

    def warm_templates(self, model: TransformerConfig, global_batch: int,
                       min_nodes: int = 1, max_nodes: int | None = None,
                       memory_limit_bytes: float | None = None,
                       micro_batches: "list[int] | None" = None,
                       schedules: "tuple[str, ...] | list[str] | None" = None,
                       options: PipetteOptions | None = None,
                       templates_per_count: int | None = None,
                       ) -> TemplateLibrary:
        """Generate and install the template library for ``model``.

        Generation runs *outside* the service lock against a snapshot
        of the cluster state, so plan requests keep being answered while
        the library fills (the :class:`~repro.service.warmer.TemplateWarmer`
        calls this from a background thread).  Only the final install
        retakes the lock.  A memory limit needs an estimator, as in
        :meth:`plan`.
        """
        self._check_memory_limit(memory_limit_bytes)
        with self._lock:
            cluster = self.cluster
            bandwidth = self.bandwidth
            profile = self.profile_for(model)
        generator = PipelineTemplateGenerator(
            model, cluster, bandwidth, profile,
            memory_estimator=self.memory_estimator,
            options=options or PipetteOptions(),
        )
        kwargs = {} if templates_per_count is None \
            else {"templates_per_count": templates_per_count}
        library = generator.generate(
            global_batch, min_nodes=min_nodes, max_nodes=max_nodes,
            memory_limit_bytes=memory_limit_bytes,
            micro_batches=micro_batches, schedules=schedules,
            executor=self.executor, **kwargs)
        self.set_template_library(library)
        _log.info("template library warmed", extra={
            "cluster": cluster.name, "model": model.name,
            "templates": library.size,
            "covered_counts": list(library.covered_counts)})
        return library

    def _lookup_template(self, request: PlanRequest,
                         n_nodes: int) -> "PipelineTemplate | None":
        """Library lookup for ``request`` at ``n_nodes``, with accounting.

        Returns ``None`` (and counts nothing) when no library is
        installed; otherwise every call counts a hit or a miss in
        ``pipette_template_lookups_total`` and leaves a
        ``templates.lookup`` span behind.
        """
        library = self._template_library
        if library is None:
            return None
        template = None
        if library.matches(request.model.name, request.global_batch):
            template = library.lookup(
                n_nodes,
                micro_batches=request.micro_batches,
                schedules=request.schedules,
                memory_limit_bytes=request.memory_limit_bytes,
            )
        outcome = "hit" if template is not None else "miss"
        self._template_lookups[outcome] += 1
        TRACER.record_span("templates.lookup", 0.0, outcome=outcome,
                           n_nodes=n_nodes, model=request.model.name)
        return template

    def _answer_from_template(self, request: PlanRequest,
                              template: PipelineTemplate) -> PipetteResult:
        """Instantiate a template and :func:`polish` it on the live fabric.

        The stored placement and its portfolio runner-ups are the warm
        starts.  The result is a regular :class:`PipetteResult`,
        cacheable under the current epoch like any searched plan.
        """
        t0 = time.perf_counter()
        with TRACER.span("search.template", warm_source="template",
                         n_nodes=template.n_nodes,
                         schedule=template.config.schedule) as span:
            leader = template.instantiate(self.cluster)
            ctx = SearchContext(
                cluster=self.cluster, model=request.model,
                bandwidth=self.bandwidth,
                profile=self.profile_for(request.model),
                memory_estimator=self.memory_estimator,
                sa=default_warm_sa(request.options.sa))
            entry, sa_result, _ = polish(
                ctx, leader, [leader.mapping, *leader.portfolio],
                request.options.seed, span)
            span.set_attribute("estimated_latency_s", entry.estimated_latency_s)
            return PipetteResult(
                best=entry, ranked=[entry], rejected_oom=0,
                memory_check_s=0.0, annealing_s=sa_result.elapsed_s,
                total_s=time.perf_counter() - t0,
            )

    # -------------------------------------------------------------- elastic

    def apply_failure(self, *failed_nodes: int) -> int:
        """Adopt the post-failure world without re-planning anything.

        Installs the shrunken cluster and the survivor-restricted
        matrix, rolls the bandwidth epoch, and retires every cached
        plan and per-model profile (they all reference GPUs that no
        longer all exist).  Unlike :meth:`replan`, no request is
        needed — the gateway can propagate a failure event to the right
        cluster and let later requests re-plan on demand.  Returns the
        number of retired plans.  An empty node set raises
        ``ValueError`` and changes nothing: no node failed, so no plan
        is stale.
        """
        with self._lock:
            cluster, bandwidth = post_event_world(
                self.cluster, self.bandwidth,
                ClusterEvent.node_failure(*failed_nodes))
            return self._adopt(bandwidth, cluster)

    def update_bandwidth(self, new_bandwidth: BandwidthMatrix,
                         drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
                         ) -> int:
        """Adopt a re-profiled matrix; retire stale plans if it drifted.

        Drift is always measured against the *epoch baseline* — the
        matrix the cached plans were actually searched against — so
        slow cumulative drift cannot ratchet past the threshold
        unnoticed.  A re-profile within the threshold is treated as
        measurement wiggle and discarded entirely (cached plans stay
        valid; re-searching over profiler noise would thrash the cache
        for identical answers).  Drift beyond it adopts the new matrix,
        rolls the epoch, and drops every cached plan searched against
        the old fabric.  Returns the number of retired plans.
        """
        with self._lock:
            post_event_world(self.cluster, self.bandwidth,
                             ClusterEvent.bandwidth_drift(), new_bandwidth)
            if not drift_exceeds(self.bandwidth, new_bandwidth,
                                 drift_threshold):
                return 0
            return self._adopt(new_bandwidth)

    def replan(self, request: PlanRequest, event: ClusterEvent,
               new_bandwidth: BandwidthMatrix | None = None,
               run_cold: bool = True) -> ReplanReport:
        """Answer ``request`` again after ``event``, warm-starting.

        The previous plan is taken from the cache (or computed now if
        the service never answered this request).  The service then
        *adopts* the post-event world, so later answers agree with the
        report: a node failure installs the shrunken cluster and
        survivor matrix (retiring the whole cache and the per-model
        profiles — every cached plan maps workers onto GPUs that no
        longer all exist); a drift event installs ``new_bandwidth``
        unconditionally (the caller declared it real — the
        :meth:`update_bandwidth` threshold is for routine re-profiles,
        not declared events) and seeds the fresh epoch with the cold
        result when one was computed.  Requests still built for the
        pre-failure cluster raise :class:`ClusterMismatchError` rather
        than being answered with a stale plan.
        """
        with self._lock:
            # An invalid event raises here, before anything is
            # searched, cached or counted.
            world, _ = post_event_world(self.cluster, self.bandwidth,
                                        event, new_bandwidth)
            previous = self.plan(request).best
            if previous is None:
                raise RuntimeError(
                    "no feasible previous plan to warm-start from")
            # Consult the warmed library for the surviving node count
            # first: a hit skips the re-rank search and reports
            # warm_source="template".
            template = self._lookup_template(request, world.n_nodes) \
                if event.kind == "node_failure" else None
            report = replan(
                self.cluster, request.model, self.bandwidth,
                self.profile_for(request.model), previous, event,
                memory_estimator=self.memory_estimator,
                options=request.options,
                new_bandwidth=new_bandwidth,
                memory_limit_bytes=request.memory_limit_bytes,
                micro_batches=list(request.micro_batches)
                if request.micro_batches is not None else None,
                schedules=request.schedules,
                executor=self.executor,
                run_cold=run_cold,
                template=template,
            )
            self._warm_sources[report.warm_source] += 1
            if event.kind == "node_failure":
                self._adopt(report.bandwidth, report.cluster)
            else:
                self._adopt(report.bandwidth)
                if report.cold_result is not None:
                    # The cold search is exactly what a fresh plan() of
                    # this request would compute — don't pay for it
                    # twice.
                    self.cache.put(request.fingerprint(),
                                   self.bandwidth_fp, report.cold_result)
            return report

    def _adopt(self, bandwidth: BandwidthMatrix,
               cluster: ClusterSpec | None = None) -> int:
        """Install a new bandwidth epoch; returns the retired plan count.

        With ``cluster`` (a node failure) every cached plan and profile
        retires; otherwise only plans of another epoch.  Caller holds
        the lock.
        """
        self.bandwidth = bandwidth
        self.bandwidth_fp = bandwidth.fingerprint()
        if cluster is None:
            return self.cache.invalidate_epoch(self.bandwidth_fp)
        self.cluster = cluster
        retired = len(self.cache)
        self.cache.clear()
        self._profiles.clear()
        return retired

    # --------------------------------------------------------------- metrics

    def attach_metrics(self, metrics, cluster: str) -> None:
        """Export this service's counters on a metrics registry.

        Attaches the plan cache (:meth:`PlanCache.attach_metrics`) and
        the service's own series under the ``cluster`` label.  All
        series are pull-bound to the live state, so ``/metrics`` and
        :attr:`stats` cannot disagree.

        Args:
            metrics: a :class:`repro.service.metrics.MetricsRegistry`.
            cluster: label value identifying this cluster.
        """
        self.cache.attach_metrics(metrics, cluster)
        metrics.counter(
            "pipette_service_submitted_total",
            "Plan requests answered by the planning service (failed "
            "searches included).",
            ("cluster",)).labels(cluster=cluster).bind(
                lambda: self._submitted)
        metrics.gauge(
            "pipette_profiled_models",
            "Per-model compute profiles held by the service.",
            ("cluster",)).labels(cluster=cluster).set_function(
                lambda: len(self._profiles))
        metrics.gauge(
            "pipette_cluster_gpus",
            "GPUs the service currently plans for (shrinks on "
            "node failure).",
            ("cluster",)).labels(cluster=cluster).set_function(
                lambda: self.cluster.n_gpus)
        warm = metrics.counter(
            "pipette_replans_warm_source",
            "Re-plans by warm-start origin: a precomputed pipeline "
            "template for the surviving node count (template), the "
            "previous plan's own mapping (best), a portfolio "
            "runner-up that outscored it (portfolio), or no surviving "
            "mapping (cold).",
            ("cluster", "source"))
        for source in ("template", "best", "portfolio", "cold"):
            warm.labels(cluster=cluster, source=source).bind(
                lambda s=source: self._warm_sources[s])
        lookups = metrics.counter(
            "pipette_template_lookups_total",
            "Template-library lookups by outcome (only counted while "
            "a library is installed).",
            ("cluster", "outcome"))
        for outcome in ("hit", "miss"):
            lookups.labels(cluster=cluster, outcome=outcome).bind(
                lambda o=outcome: self._template_lookups[o])
        metrics.gauge(
            "pipette_template_library_size",
            "Pipeline templates held across all covered node counts "
            "(0 until a library is warmed).",
            ("cluster",)).labels(cluster=cluster).set_function(
                lambda: 0 if self._template_library is None
                else self._template_library.size)

    # ---------------------------------------------------------------- stats

    @property
    def stats(self) -> dict:
        """Operational counters of cache, profiles, and executor."""
        with self._lock:
            return self._stats_locked()

    def _stats_locked(self) -> dict:
        # Both stats objects are copied atomically under their own
        # locks — field-by-field reads of live stats can tear against
        # a plan bumping them in another thread.
        cache_stats = self.cache.stats_snapshot()
        out = {
            "requests_submitted": self._submitted,
            "cache_entries": len(self.cache),
            "cache_hits": cache_stats.hits,
            "cache_misses": cache_stats.misses,
            "cache_hit_rate": cache_stats.hit_rate,
            "cache_evictions": cache_stats.evictions,
            "cache_stale_drops": cache_stats.stale_drops,
            "profiled_models": len(self._profiles),
            "replan_warm_sources": dict(self._warm_sources),
            "template_lookups": dict(self._template_lookups),
            "template_library_size": 0 if self._template_library is None
            else self._template_library.size,
        }
        if self.executor is not None:
            executor_stats = self.executor.stats_snapshot()
            out["executor_workers"] = self.executor.n_workers
            out["executor_batches"] = executor_stats.batches
            out["executor_tasks"] = executor_stats.tasks
        return out
