"""The vocabulary of elastic re-planning: cluster events and warm starts.

Real clusters are not static: the paper's 40-day campaign (Fig. 3,
:mod:`repro.cluster.trace`) shows attained bandwidth drifting week to
week, and long training campaigns lose nodes outright.  Cold-searching
Algorithm 1 after every such event repays the full configuration
overhead of Table II; re-planning instead *reuses* the previous answer.
This module holds what every warm path shares: :class:`ClusterEvent`,
:func:`post_event_world` (the one place an event becomes a cluster and
a matrix), drift measurement, the warm budget, the warm starts carried
over from the previous plan (verbatim on drift, via
:func:`repro.parallel.mapping.compact_mapping_after_failure` on a
failure), :func:`best_start`, :func:`template_fits` and
:class:`ReplanReport`.  :func:`repro.service.planner.replan` and the
one warm polish, :func:`repro.service.planner.polish`, use them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.cluster.fabric import BandwidthMatrix, Fabric
from repro.cluster.topology import ClusterSpec
from repro.core.annealing import SAOptions
from repro.core.configurator import PipetteResult, RankedConfig
from repro.core.latency_kernel import LatencyKernel
from repro.core.templates import PipelineTemplate
from repro.parallel.mapping import (
    Mapping,
    WorkerGrid,
    compact_mapping_after_failure,
)

#: Relative bandwidth change beyond which cached plans are considered
#: stale.  The Fig. 3 campaign shows day-to-day wiggle well under this
#: and week-scale drift above it, so the default separates measurement
#: noise from real fabric change.
DEFAULT_DRIFT_THRESHOLD = 0.10


@dataclass(frozen=True)
class ClusterEvent:
    """Something that happened to the cluster since the last plan.

    Attributes:
        kind: ``"node_failure"`` or ``"bandwidth_drift"``.
        failed_nodes: node indices that died (``node_failure`` only).
        day: fabric day of the observation (``bandwidth_drift`` only;
            informational).
    """

    kind: str
    failed_nodes: tuple[int, ...] = ()
    day: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("node_failure", "bandwidth_drift"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind == "node_failure" and not self.failed_nodes:
            raise ValueError("a node failure needs at least one failed node")

    @classmethod
    def node_failure(cls, *nodes: int) -> "ClusterEvent":
        """The event of losing ``nodes`` from the cluster."""
        return cls(kind="node_failure",
                   failed_nodes=tuple(sorted(int(n) for n in nodes)))

    @classmethod
    def bandwidth_drift(cls, day: float | None = None) -> "ClusterEvent":
        """The event of a re-profiled, drifted bandwidth matrix."""
        return cls(kind="bandwidth_drift", day=day)


def bandwidth_drift_ratio(old: BandwidthMatrix,
                          new: BandwidthMatrix) -> float:
    """Largest relative per-link bandwidth change between two matrices.

    A link that was measurable in ``old`` but comes back NaN/inf in
    ``new`` is dead, not unchanged, and a link profiled at 0 GB/s that
    now attains anything has no finite ratio either; both report
    infinite drift so the caller always retires plans searched against
    a fabric that lost a link.
    """
    if old.n_gpus != new.n_gpus:
        raise ValueError(
            f"matrices cover {old.n_gpus} vs {new.n_gpus} GPUs; drift is "
            "only defined over an unchanged GPU set"
        )
    old_finite = np.isfinite(old.matrix)
    new_finite = np.isfinite(new.matrix)
    if np.any(old_finite & ~new_finite):
        return float("inf")
    both = old_finite & new_finite
    if not both.any():
        return 0.0
    denom = old.matrix[both]
    diff = np.abs(new.matrix[both] - denom)
    if np.any((denom == 0.0) & (diff > 0.0)):
        return float("inf")
    nonzero = denom > 0.0
    if not nonzero.any():
        return 0.0
    return float((diff[nonzero] / denom[nonzero]).max())


def drift_exceeds(old: BandwidthMatrix, new: BandwidthMatrix,
                  threshold: float = DEFAULT_DRIFT_THRESHOLD) -> bool:
    """Whether the fabric moved enough to retire cached plans."""
    return bandwidth_drift_ratio(old, new) > threshold


def fabric_drift_ratio(fabric: Fabric, day: float,
                       baseline_day: float = 0.0) -> float:
    """Drift of a fabric between two days of its Fig. 3 trace.

    Convenience for monitoring loops that re-run the
    :func:`repro.cluster.trace.collect_latency_trace` campaign: the
    same temporal drift that separates the trace's quantile lines moves
    this ratio.
    """
    return bandwidth_drift_ratio(fabric.bandwidth_at_day(baseline_day),
                                 fabric.bandwidth_at_day(day))


def surviving_gpus(cluster: ClusterSpec, failed_nodes) -> list[int]:
    """GPU ids of ``cluster`` outside the failed nodes, in order."""
    failed = {int(n) for n in failed_nodes}
    return [g for g in range(cluster.n_gpus)
            if cluster.node_of(g) not in failed]


def shrink_cluster(cluster: ClusterSpec, failed_nodes) -> ClusterSpec:
    """The cluster left after ``failed_nodes`` drop out.

    Nodes are homogeneous on paper, so the shrunken spec is the same
    hardware with fewer nodes; GPU ids are compacted to match
    :meth:`repro.cluster.fabric.BandwidthMatrix.restrict`.  An empty
    ``failed_nodes`` raises ``ValueError``: nothing failed.
    """
    failed = {int(n) for n in failed_nodes}
    if not failed:
        raise ValueError("a node failure needs at least one failed node")
    for node in failed:
        if not 0 <= node < cluster.n_nodes:
            raise ValueError(f"failed node {node} outside the cluster")
    remaining = cluster.n_nodes - len(failed)
    if remaining < 1:
        raise ValueError("no nodes left after the failure")
    return cluster.scaled_to(remaining)


def post_event_world(cluster: ClusterSpec, bandwidth: BandwidthMatrix,
                     event: ClusterEvent,
                     new_bandwidth: BandwidthMatrix | None = None,
                     ) -> "tuple[ClusterSpec, BandwidthMatrix]":
    """The cluster and matrix in force after ``event``; mutates nothing.

    A node failure shrinks ``cluster`` and restricts ``new_bandwidth``
    (else ``bandwidth``) to the survivors unless it covers only them
    already.  A drift keeps the cluster and needs ``new_bandwidth``
    over the same GPUs.  A refused event raises ``ValueError``.
    """
    if event.kind == "node_failure":
        survivors = shrink_cluster(cluster, event.failed_nodes)
        base = new_bandwidth if new_bandwidth is not None else bandwidth
        if base.n_gpus != survivors.n_gpus:
            base = base.restrict(surviving_gpus(cluster, event.failed_nodes))
        return survivors, base
    if new_bandwidth is None:
        raise ValueError("bandwidth_drift re-planning needs the "
                         "re-profiled matrix (new_bandwidth)")
    if new_bandwidth.n_gpus != cluster.n_gpus:
        raise ValueError(
            f"new matrix covers {new_bandwidth.n_gpus} GPUs but the "
            f"cluster has {cluster.n_gpus}"
        )
    return cluster, new_bandwidth


def default_warm_sa(sa: SAOptions) -> SAOptions:
    """A quarter-budget annealing schedule for warm-started re-plans.

    Warm starts begin near the optimum, so they converge in a fraction
    of the cold budget; whichever budget (iterations or wall-clock) is
    configured is scaled down.
    """
    iterations = None if sa.max_iterations is None \
        else max(200, sa.max_iterations // 4)
    time_limit = None if sa.time_limit_s is None \
        else max(0.5, sa.time_limit_s / 4)
    return replace(sa, max_iterations=iterations, time_limit_s=time_limit)


@dataclass
class ReplanReport:
    """Outcome of one elastic re-plan, warm path vs cold search.

    Attributes:
        event: what happened.
        cluster: the cluster planned for after the event.
        bandwidth: the matrix the re-plan was searched against (the
            restricted survivor matrix after a failure, the re-profiled
            one after drift) — what a service adopts as its new state.
        previous: the plan that was in force before the event.
        warm: warm-started recommendation.
        warm_start_latency_s: estimated latency of the surgically
            warm-started mapping *before* annealing polished it.
        warm_search_s: wall-clock of the warm path (naive re-ranking +
            short anneal).
        cold: cold-search recommendation (``None`` if skipped).
        cold_search_s: wall-clock of the cold search.
        cold_result: the cold search's full result (``None`` if skipped).
        warm_source: where the polished warm start came from —
            ``"template"`` (a precomputed pipeline template for the
            surviving node count answered; no re-rank search ran),
            ``"best"`` (the previous plan's own mapping),
            ``"portfolio"`` (one of its runner-up mappings outscored
            the old best on the post-event cluster), or ``"cold"``
            (no previous mapping survived; the leader's naive mapping
            started the polish).
    """

    event: ClusterEvent
    cluster: ClusterSpec
    bandwidth: BandwidthMatrix
    previous: RankedConfig
    warm: RankedConfig
    warm_start_latency_s: float
    warm_search_s: float
    cold: RankedConfig | None = None
    cold_search_s: float | None = None
    cold_result: PipetteResult | None = None
    warm_source: str = "best"

    @property
    def latency_gap(self) -> float:
        """Relative latency excess of warm over cold (negative = warm wins)."""
        if self.cold is None:
            raise ValueError("cold search was skipped; no gap to report")
        return (self.warm.estimated_latency_s
                / self.cold.estimated_latency_s) - 1.0

    @property
    def search_speedup(self) -> float:
        """How many times faster the warm path found its answer."""
        if self.cold_search_s is None:
            raise ValueError("cold search was skipped; no speedup to report")
        return self.cold_search_s / max(self.warm_search_s, 1e-9)


def _warm_candidates(event: ClusterEvent, previous: RankedConfig,
                     leader: RankedConfig, cluster: ClusterSpec
                     ) -> "list[tuple]":
    """Every viable warm start, as ``(mapping, source)`` pairs.

    The previous plan's own mapping (source ``"best"``) leads, followed
    by its portfolio runner-ups (source ``"portfolio"``); each is
    carried over verbatim on a drift or put through mapping surgery on
    a failure, dropping candidates the surgery rejects.  When nothing
    survives — the leader changed shape, or surgery failed on every
    candidate — the leader's own naive mapping (source ``"cold"``) is
    the honest start.  The best-first order means latency ties in the
    caller's argmin resolve toward ``"best"``.
    """
    sources = [(previous.mapping, "best")] + \
        [(m, "portfolio") for m in previous.portfolio]
    if event.kind == "bandwidth_drift":
        if leader.config.pp == previous.config.pp \
                and leader.config.tp == previous.config.tp \
                and leader.config.dp == previous.config.dp:
            return sources
        return [(leader.mapping, "cold")]
    grid = WorkerGrid(pp=leader.config.pp, tp=leader.config.tp,
                      dp=leader.config.dp)
    survivors = []
    for mapping, source in sources:
        try:
            survivors.append((compact_mapping_after_failure(
                mapping, event.failed_nodes, cluster, grid), source))
        except ValueError:
            # This mapping's slot geometry does not carry over (e.g.
            # the leader changed tensor-parallel width).
            continue
    return survivors or [(leader.mapping, "cold")]


def best_start(kernel: LatencyKernel, mappings: "list[Mapping]") -> int:
    """Index of the lowest-latency warm start among ``mappings``.

    Every candidate is scored in one ``evaluate_batch`` call; ties
    resolve to the earliest.  A lone candidate is returned unscored.
    """
    if len(mappings) == 1:
        return 0
    perms = np.stack([np.asarray(m.block_to_slot, dtype=np.int64)
                      for m in mappings])
    return int(np.argmin(kernel.evaluate_batch(perms)))


def template_fits(template: PipelineTemplate, cluster: ClusterSpec,
                  global_batch: int) -> bool:
    """Whether ``template`` can instantiate onto ``cluster`` for this job.

    A template binds a node count, a GPU-per-node geometry and a
    global batch; all three must match the post-event world (a library
    generated for a different family, or a stale lookup raced by a
    second failure, fails closed and the re-rank path answers instead).
    """
    config = template.config
    return (template.n_nodes == cluster.n_nodes
            and config.pp * config.tp * config.dp == cluster.n_gpus
            and cluster.gpus_per_node % config.tp == 0
            and config.global_batch == global_batch)
