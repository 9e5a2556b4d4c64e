"""Multi-cluster planning: a table from cluster name to service.

A real fleet is several clusters — different hardware generations,
different fabrics — each with its own profiled bandwidth matrix,
memory estimator, and plan cache.  :class:`ClusterRegistry` owns one
:class:`~repro.service.planner.PlanningService` per named cluster;
callers look a service up by name (:meth:`ClusterRegistry.service`)
and talk to it directly, so an elastic event on one cluster leaves
every sibling's cache and epoch untouched.  An unpinned request can
also be routed by spec match (:meth:`ClusterRegistry.route`).

Services keep their identity inside the registry: per-cluster durable
caches (:mod:`repro.service.store`) rehydrate independently, so a
restarted registry remembers every cluster's plans.

Answering requests — queueing, in-flight coalescing, the event fence,
and the cheapest-feasible fan-out of a request with no cluster
preference — lives one layer up, in the async gateway
(:mod:`repro.service.gateway`) and its transports
(:func:`repro.service.http.answer_payload`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.cluster.fabric import BandwidthMatrix
from repro.cluster.topology import ClusterSpec
from repro.core.configurator import RankedConfig
from repro.core.memory_estimator import MemoryEstimator
from repro.obs.trace import TRACER
from repro.service.cache import PlanCache, PlanRequest
from repro.service.executor import CandidateExecutor
from repro.service.planner import PlanningService


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
    """A table from cluster name to its planning service.

    Args:
        executor: candidate executor shared by every registered
            service built through :meth:`add_cluster` (one pool serves
            the whole fleet; per-cluster searches fan their candidate
            work over it independently).  ``None`` searches serially.
    """

    def __init__(self, executor: CandidateExecutor | None = None) -> None:
        self.executor = executor
        self._services: "OrderedDict[str, PlanningService]" = OrderedDict()
        self._metrics = None
        # Guards membership only.  Routing and stats take a snapshot of
        # the table and then rely on each service's own lock, so a long
        # search on one cluster never blocks registering another.
        self._lock = threading.RLock()

    # ---------------------------------------------------------- membership

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
        *before* the membership mutation, so a failed attach (e.g. a
        name whose series another service already bound on that
        metrics registry) leaves the registry unchanged instead of
        half-registered.
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
