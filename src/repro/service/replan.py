"""Elastic re-planning: warm-started answers to cluster events.

Real clusters are not static: the paper's 40-day campaign (Fig. 3,
:mod:`repro.cluster.trace`) shows attained bandwidth drifting week to
week, and long training campaigns lose nodes outright.  Cold-searching
Algorithm 1 after every such event repays the full configuration
overhead of Table II; re-planning instead *reuses* the previous answer:

* the naive scoring pass re-ranks the (changed) configuration space
  without any annealing,
* the leader's worker mapping is warm-started from the previous plan —
  via mapping surgery (:func:`repro.parallel.mapping.compact_mapping_after_failure`)
  when nodes failed, or verbatim when only bandwidth drifted —
* and a short simulated-annealing run polishes that warm start, rather
  than re-growing a placement from the framework default.

When a precomputed :class:`repro.core.templates.PipelineTemplate` for
the surviving node count is available (a warmed
:class:`~repro.core.templates.TemplateLibrary`), the re-rank search is
skipped entirely: the template instantiates onto the survivors and
only the slot-assignment polish runs — ``warm_source="template"``.

:func:`replan` also runs the cold search for comparison, reporting the
latency gap and search-time saving of the warm path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.cluster.fabric import BandwidthMatrix, Fabric
from repro.cluster.topology import ClusterSpec
from repro.core.annealing import SAOptions, anneal_mapping
from repro.core.configurator import (
    PipetteConfigurator,
    PipetteOptions,
    PipetteResult,
    RankedConfig,
    SearchContext,
    candidate_kernel,
)
from repro.core.latency_kernel import LatencyKernel
from repro.core.memory_estimator import MemoryEstimator
from repro.core.templates import PipelineTemplate
from repro.model.transformer import TransformerConfig
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import TRACER
from repro.parallel.mapping import (
    Mapping,
    WorkerGrid,
    compact_mapping_after_failure,
)
from repro.profiling.profile_run import ComputeProfile

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
            raise ValueError("node_failure event needs at least one node")

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

    Every candidate is scored in one batched kernel call; ties resolve
    to the earliest.  A lone candidate is returned unscored.
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

    Args:
        cluster: the cluster ``previous`` was planned for.
        bandwidth: the matrix ``previous`` was searched against.
        previous: the plan in force when the event happened.
        event: what changed.  ``node_failure`` shrinks the cluster and
            restricts the matrix to the survivors; ``bandwidth_drift``
            keeps the cluster and requires ``new_bandwidth`` (the
            re-profiled matrix).  The warm polish anneals on a quarter
            of the cold budget (:func:`default_warm_sa`).
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
    warm_sa = default_warm_sa(options.sa)
    global_batch = previous.config.global_batch

    if event.kind == "node_failure":
        new_cluster = shrink_cluster(cluster, event.failed_nodes)
        keep = surviving_gpus(cluster, event.failed_nodes)
        base = new_bandwidth if new_bandwidth is not None else bandwidth
        new_bw = base if base.n_gpus == new_cluster.n_gpus \
            else base.restrict(keep)
    else:
        if new_bandwidth is None:
            raise ValueError("bandwidth_drift re-planning needs the "
                             "re-profiled matrix (new_bandwidth)")
        new_cluster = cluster
        new_bw = new_bandwidth

    # The whole re-plan is one span tagged with the triggering event,
    # so failure-recovery latency is directly measurable per event
    # kind in traces and the phase-latency histogram.
    with TRACER.span("replan", event_kind=event.kind,
                     failed_nodes=list(event.failed_nodes),
                     event_day=event.day) as replan_span:
        # Warm path: instantiate a precomputed template when one fits
        # the surviving node count; otherwise re-rank the configuration
        # space with naive mappings only (no annealing).  Either way a
        # short anneal then polishes the warm-started mapping.
        t0 = time.perf_counter()
        use_template = (template is not None
                        and event.kind == "node_failure"
                        and template_fits(template, new_cluster,
                                          global_batch))
        if use_template:
            with TRACER.span("replan.template",
                             n_nodes=template.n_nodes,
                             schedule=template.config.schedule):
                leader = template.instantiate(new_cluster)
        else:
            with TRACER.span("replan.rerank"):
                naive = PipetteConfigurator(
                    new_cluster, model, new_bw, profile, memory_estimator,
                    options=replace(options, use_worker_dedication=False),
                ).search(global_batch, memory_limit_bytes=memory_limit_bytes,
                         micro_batches=micro_batches, schedules=schedules,
                         executor=executor)
            if naive.best is None:
                raise RuntimeError("no feasible configuration on the "
                                   "post-event cluster; cannot re-plan")
            leader = naive.best
        ctx = SearchContext(cluster=new_cluster, model=model,
                            bandwidth=new_bw, profile=profile,
                            memory_estimator=memory_estimator, sa=warm_sa)
        # The warm polish (and the candidate selection below) runs
        # against the compiled latency kernel — same values as the
        # reference estimator bit for bit, so warm results remain
        # comparable with (and cacheable alongside) cold searches.
        kernel = candidate_kernel(ctx, leader.config)
        if use_template:
            # The template's stored placement (plus its portfolio
            # runner-ups) seeds the polish; the previous plan's
            # mappings are already folded into the library.
            candidates = [(leader.mapping, "template")] + \
                [(m, "template") for m in leader.portfolio]
        else:
            candidates = _warm_candidates(event, previous, leader,
                                          new_cluster)
        # A re-plan starts from the strongest member of the previous
        # plan's portfolio, not blindly from its old best.
        start_mapping, warm_source = candidates[
            best_start(kernel, [m for m, _ in candidates])]
        # The polish runs inline, so its flight recorder (provenance
        # "warm-start") lands on the span directly rather than
        # crossing a pool boundary.
        recorder = FlightRecorder(provenance="warm-start") \
            if TRACER.enabled else None
        with TRACER.span("replan.warm_anneal") as warm_span:
            sa_result = anneal_mapping(
                start_mapping,
                kernel,
                warm_sa.with_seed(options.seed),
                recorder=recorder,
            )
            if recorder is not None:
                warm_span.set_attribute("flight", recorder.to_payload())
                warm_span.set_attribute("exit_reason", sa_result.exit_reason)
        warm_search_s = time.perf_counter() - t0
        report = ReplanReport(
            event=event, cluster=new_cluster, bandwidth=new_bw,
            previous=previous, warm=leader.refined(sa_result),
            warm_start_latency_s=sa_result.initial_value,
            warm_search_s=warm_search_s,
            warm_source=warm_source,
        )
        if run_cold:
            with TRACER.span("replan.cold_search"):
                cold_result = PipetteConfigurator(
                    new_cluster, model, new_bw, profile, memory_estimator,
                    options=options,
                ).search(global_batch,
                         memory_limit_bytes=memory_limit_bytes,
                         micro_batches=micro_batches, schedules=schedules,
                         executor=executor)
            report.cold = cold_result.best
            report.cold_search_s = cold_result.total_s
            report.cold_result = cold_result
        replan_span.set_attribute("warm_search_s", warm_search_s)
        replan_span.set_attribute("warm_source", warm_source)
        return report
