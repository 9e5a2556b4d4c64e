"""The planning service: Pipette as a persistent system service.

The offline configurator answers one ``search()`` at a time; this
package makes it production-shaped, the way Piper exposes planning as
a programmable service and PipeTune amortizes tuning across jobs:

* :mod:`repro.service.cache` — the one plan-payload parser, canonical
  request fingerprints, and an LRU plan store invalidated by
  bandwidth-matrix epoch;
* :mod:`repro.service.executor` — fans the configurator's pure
  per-candidate work units over ``concurrent.futures`` pools;
* :mod:`repro.service.replan` — the vocabulary of elastic
  re-planning: cluster events, the post-event world, drift, and warm
  starts carried over from the prior plan;
* :mod:`repro.service.planner` — one cluster's planner: the one
  answering routine (cache, then search), event handling, and the one
  warm polish behind template answers and re-plans;
* :mod:`repro.service.store` — durable JSON-lines plan persistence,
  rehydrating the cache (epochs intact) across service restarts;
* :mod:`repro.service.registry` — a table from cluster name to
  service, plus spec-match routing of unpinned requests;
* :mod:`repro.service.gateway` — the asyncio front door and the only
  queue: concurrent clients, in-flight coalescing, bounded
  per-cluster backpressure, weighted-fair per-client lanes, misses
  answered one at a time off the event loop, elastic events fenced
  between drains;
* :mod:`repro.service.metrics` — stdlib Prometheus-text-format
  counters/gauges/histograms, pull-bound to the live stats objects so
  ``/metrics`` and in-process stats can never disagree;
* :mod:`repro.service.http` — a hand-rolled asyncio HTTP/1.1 server
  loop shared by the worker front end over the gateway (``POST
  /v1/plan``, elastic-event routes, ``GET /healthz``, Prometheus
  ``GET /metrics``) and the fleet router;
* :mod:`repro.service.shard` — consistent-hash placement for the
  fleet: a sha256 ring with virtual nodes, the plan-content routing
  key, and per-shard durable segment naming;
* :mod:`repro.service.fleet` — the horizontal scale-out layer:
  a supervisor over N worker processes (health checks and crash
  restarts) and the front-end router (shard routing, event fan-out,
  aggregated ``/healthz`` + ``/metrics``, per-client admission
  quotas);
* ``python -m repro.service`` — a small CLI over all of the above
  (including the ``serve`` front ends: JSON lines over stdin/stdout,
  HTTP with ``--http PORT``, and the multi-process ``fleet``
  subcommand).

``docs/ARCHITECTURE.md`` has the layer diagram and request lifecycle;
``docs/SERVING.md`` is the operator guide (schemas, metrics catalog,
tuning).
"""

from repro.service.cache import (
    CacheStats,
    PlanCache,
    PlanRequest,
)
from repro.service.executor import (
    CandidateExecutor,
    ExecutorStats,
    available_workers,
)
from repro.service.fleet import (
    AdmissionController,
    FleetRouter,
    FleetSupervisor,
    TokenBucket,
    WorkerClient,
)
from repro.service.gateway import (
    GatewayOverloadedError,
    GatewayResponse,
    GatewayStats,
    PlanGateway,
)
from repro.service.http import (
    HttpError,
    HttpPlanServer,
    answer_payload,
    plan_response_payload,
    render_answer,
)
from repro.service.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.service.replan import (
    DEFAULT_DRIFT_THRESHOLD,
    ClusterEvent,
    ReplanReport,
    bandwidth_drift_ratio,
    default_warm_sa,
    drift_exceeds,
    fabric_drift_ratio,
    shrink_cluster,
    surviving_gpus,
)
from repro.service.planner import (
    PlanningService,
    PlanResponse,
    replan,
)
from repro.service.registry import ClusterRegistry
from repro.service.shard import (
    REPLICAS,
    HashRing,
    routing_key,
    shard_segment_path,
)
from repro.service.store import (
    SCHEMA_VERSION,
    DurablePlanCache,
    PlanStore,
    PlanStoreError,
    PlanStoreLockedError,
)

__all__ = [
    "CacheStats",
    "PlanCache",
    "PlanRequest",
    "CandidateExecutor",
    "ExecutorStats",
    "available_workers",
    "AdmissionController",
    "FleetRouter",
    "FleetSupervisor",
    "TokenBucket",
    "WorkerClient",
    "REPLICAS",
    "HashRing",
    "routing_key",
    "shard_segment_path",
    "GatewayOverloadedError",
    "GatewayResponse",
    "GatewayStats",
    "PlanGateway",
    "HttpError",
    "HttpPlanServer",
    "answer_payload",
    "plan_response_payload",
    "render_answer",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "DEFAULT_DRIFT_THRESHOLD",
    "ClusterEvent",
    "ReplanReport",
    "bandwidth_drift_ratio",
    "default_warm_sa",
    "drift_exceeds",
    "fabric_drift_ratio",
    "replan",
    "shrink_cluster",
    "surviving_gpus",
    "PlanningService",
    "PlanResponse",
    "ClusterRegistry",
    "SCHEMA_VERSION",
    "DurablePlanCache",
    "PlanStore",
    "PlanStoreError",
    "PlanStoreLockedError",
]
