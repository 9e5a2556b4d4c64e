"""Multi-cluster planning: one front door over many named services.

A real fleet is several clusters — different hardware generations,
different fabrics — each with its own profiled bandwidth matrix,
memory estimator, and plan cache.  :class:`ClusterRegistry` owns one
:class:`~repro.service.planner.PlanningService` per named cluster and
routes work to them:

* a request *pinned* to a cluster name goes straight to that service;
* an unpinned request is routed by spec match — the registered
  cluster equal to the request's ``cluster`` answers it;
* elastic events — a re-profiled matrix, a node failure — are
  propagated to exactly one named cluster, leaving every sibling's
  cache and epoch untouched.

Services keep their identity inside the registry: per-cluster durable
caches (:mod:`repro.service.store`) rehydrate independently, so a
restarted registry remembers every cluster's plans.

Queueing, in-flight coalescing, and the cheapest-feasible fan-out of a
request with no cluster preference live one layer up, in the async
gateway (:mod:`repro.service.gateway`) and its transports
(:func:`repro.service.http.answer_payload`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.cluster.fabric import BandwidthMatrix
from repro.cluster.topology import ClusterSpec
from repro.core.configurator import PipetteResult, RankedConfig
from repro.core.memory_estimator import MemoryEstimator
from repro.model.transformer import TransformerConfig
from repro.obs.trace import TRACER
from repro.service.cache import PlanCache, PlanRequest
from repro.service.executor import CandidateExecutor
from repro.service.planner import PlanningService, PlanResponse
from repro.service.replan import DEFAULT_DRIFT_THRESHOLD


@dataclass
class RoutedResponse:
    """A plan answer plus the name of the cluster that produced it."""

    cluster_name: str
    response: PlanResponse

    @property
    def best(self) -> RankedConfig | None:
        """Shortcut to the recommended configuration."""
        return self.response.best

    @property
    def result(self) -> PipetteResult | None:
        """Shortcut to the full search result."""
        return self.response.result

    @property
    def status(self) -> str:
        """Shortcut to the cache status (``"hit"``/``"miss"``/...)."""
        return self.response.status


def cheapest_rank_key(best: RankedConfig, name: str) -> tuple:
    """Fleet-wide ranking key for cheapest-feasible routing.

    Memory-fitting plans first, then estimated latency, then the
    *cluster name*, not registration order, so the winner is a
    property of the fleet rather than of the order an operator happened
    to register it in.  Shared by every cheapest-feasible pick (the
    transports' unpinned fan-out, the ``registry`` CLI demo), so they
    can never rank ties differently.
    """
    return (not best.memory_ok, best.estimated_latency_s, name)


class ClusterRegistry:
    """Front door owning one planning service per named cluster.

    Args:
        executor: candidate executor shared by every registered
            service built through :meth:`add_cluster` (one pool serves
            the whole fleet; per-cluster searches fan their candidate
            chunks over it independently).  ``None`` searches serially.
    """

    def __init__(self, executor: CandidateExecutor | None = None) -> None:
        self.executor = executor
        self._services: "OrderedDict[str, PlanningService]" = OrderedDict()
        self._metrics = None
        # Guards membership only.  Routing and planning take a snapshot
        # of the table and then rely on each service's own lock, so a
        # long search on one cluster never blocks registering another.
        self._lock = threading.RLock()

    # ---------------------------------------------------------- membership

    def __len__(self) -> int:
        with self._lock:
            return len(self._services)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._services

    @property
    def names(self) -> list[str]:
        """Registered cluster names, in registration order."""
        with self._lock:
            return list(self._services)

    def _snapshot(self) -> "list[tuple[str, PlanningService]]":
        with self._lock:
            return list(self._services.items())

    def register(self, name: str, service: PlanningService) -> PlanningService:
        """Adopt an existing service under ``name``.

        If metrics were attached (:meth:`attach_metrics`), the new
        service is exported immediately under its cluster name — and
        *before* the membership mutation, so a failed attach (e.g.
        re-registering a name whose series are still bound to an
        unregistered predecessor) leaves the registry unchanged
        instead of half-registered.
        """
        with self._lock:
            if name in self._services:
                raise ValueError(f"cluster {name!r} is already registered")
            if self._metrics is not None:
                service.attach_metrics(self._metrics, name)
            self._services[name] = service
            return service

    def add_cluster(self, name: str, cluster: ClusterSpec,
                    bandwidth: BandwidthMatrix,
                    memory_estimator: MemoryEstimator | None = None,
                    cache: PlanCache | None = None,
                    profile_seed: int = 0) -> PlanningService:
        """Build and register a service for ``cluster`` under ``name``.

        The service shares the registry's executor; pass a
        :class:`~repro.service.store.DurablePlanCache` as ``cache`` to
        give the cluster restart-surviving plans.
        """
        return self.register(name, PlanningService(
            cluster, bandwidth, memory_estimator=memory_estimator,
            executor=self.executor, cache=cache, profile_seed=profile_seed))

    def unregister(self, name: str) -> PlanningService:
        """Remove and return the named service (its cache is untouched)."""
        with self._lock:
            if name not in self._services:
                self._raise_unknown(name)
            return self._services.pop(name)

    def service(self, name: str) -> PlanningService:
        """The service planning for the named cluster."""
        with self._lock:
            service = self._services.get(name)
            if service is None:
                self._raise_unknown(name)
            return service

    def _raise_unknown(self, name: str):
        raise ValueError(
            f"unknown cluster {name!r}; registered: {self.names or 'none'}"
        )

    # ------------------------------------------------------------- routing

    def route(self, request: PlanRequest) -> str:
        """Name of the registered cluster matching ``request.cluster``.

        Spec equality is the router (the request embeds the cluster it
        was built for); with duplicate specs the earliest registration
        wins, matching LRU-style stability.
        """
        with TRACER.span("registry.route") as span:
            for name, service in self._snapshot():
                if service.cluster == request.cluster:
                    span.set_attribute("cluster", name)
                    return name
            raise ValueError(
                f"no registered cluster matches the request's "
                f"{request.cluster.name!r} ({request.cluster.n_nodes} "
                f"nodes); registered: {self.names or 'none'}"
            )

    def plan(self, request: PlanRequest,
             cluster: str | None = None) -> RoutedResponse:
        """Answer one request, pinned to ``cluster`` or routed by spec."""
        name = cluster if cluster is not None else self.route(request)
        return RoutedResponse(cluster_name=name,
                              response=self.service(name).plan(request))

    def plan_on(self, name: str, model: TransformerConfig,
                global_batch: int, **kwargs) -> RoutedResponse:
        """Build a request bound to the named cluster and answer it."""
        service = self.service(name)
        return RoutedResponse(
            cluster_name=name,
            response=service.plan(service.request(model, global_batch,
                                                  **kwargs)))

    # ----------------------------------------------------------- templates

    def template_library(self, name: str):
        """The named cluster's installed template library (or ``None``)."""
        return self.service(name).template_library

    def set_template_library(self, name: str, library) -> None:
        """Install a :class:`~repro.core.templates.TemplateLibrary`."""
        self.service(name).set_template_library(library)

    def warm_templates(self, name: str, model: TransformerConfig,
                       global_batch: int, **kwargs):
        """Warm the named cluster's template library synchronously.

        Passes through to
        :meth:`PlanningService.warm_templates`; background warming
        goes through :class:`repro.service.warmer.TemplateWarmer`
        instead.
        """
        return self.service(name).warm_templates(model, global_batch,
                                                 **kwargs)

    # ------------------------------------------------------------- elastic

    def update_bandwidth(self, name: str, new_bandwidth: BandwidthMatrix,
                         drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
                         ) -> int:
        """Adopt a re-profiled matrix on one cluster only.

        Siblings keep their matrices, epochs, and caches; returns the
        number of plans the named cluster retired.
        """
        return self.service(name).update_bandwidth(
            new_bandwidth, drift_threshold=drift_threshold)

    def fail_nodes(self, name: str, *failed_nodes: int) -> int:
        """Apply a node failure to one cluster only.

        The named service shrinks (:meth:`PlanningService.apply_failure`)
        and retires its plans; every sibling's cache stays intact.
        Returns the number of retired plans.
        """
        return self.service(name).apply_failure(*failed_nodes)

    def compact_stores(self) -> int:
        """Compact every cluster's durable store to its live entries.

        The graceful-drain path calls this after the last request is
        answered: each :class:`~repro.service.store.DurablePlanCache`
        rewrites its log (fsynced, atomically replaced) so a restarted
        worker rehydrates live plans instead of replaying the
        session's churn.  In-memory caches are skipped.  Returns the
        number of stores compacted.
        """
        compacted = 0
        for _, service in self._snapshot():
            compact = getattr(service.cache, "compact_now", None)
            if compact is not None:
                compact()
                compacted += 1
        return compacted

    # ------------------------------------------------------------- metrics

    def attach_metrics(self, metrics) -> None:
        """Export every registered service on a metrics registry.

        Each service attaches under its registered name as the
        ``cluster`` label (:meth:`PlanningService.attach_metrics`);
        services registered *after* this call attach automatically.
        Unregistering a cluster does not retract its series — they
        keep reporting the detached service's last state, matching
        Prometheus' convention that series disappear on restart, not
        mid-flight.

        Args:
            metrics: a :class:`repro.service.metrics.MetricsRegistry`.
        """
        with self._lock:
            self._metrics = metrics
            items = list(self._services.items())
        for name, service in items:
            service.attach_metrics(metrics, name)

    # --------------------------------------------------------------- stats

    @property
    def stats(self) -> dict:
        """Per-cluster operational counters, keyed by cluster name."""
        return {name: service.stats
                for name, service in self._snapshot()}
