"""Pipeline latency models: Pipette's (Eqs. 3-6) and the prior art's (Eq. 1).

The two models share the profiled computation time ``C`` but differ in
exactly the ways the paper diagnoses (§II-B, §V):

1. **Hidden critical path** — under the memory-efficient 1F1B schedule
   the critical path re-crosses the whole pipeline once every ``pp``
   microbatches, so the bubble term (compute *and* inter-stage
   communication) multiplies by ``n_mb / pp`` (Eq. 3).  The prior-art
   model (Eq. 1) pays the inter-stage communication only once.
2. **Heterogeneous links** — Pipette evaluates the communication terms
   against the *profiled* bandwidth matrix of the actual mapping
   (Eqs. 5-6); prior art plugs in the document-specified numbers.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from repro.cluster.fabric import BandwidthMatrix
from repro.model.memory import stage_layer_count
from repro.model.transformer import TransformerConfig
from repro.parallel.config import ParallelConfig
from repro.parallel.mapping import Mapping
from repro.parallel.messages import dp_message_bytes, pp_message_bytes, tp_comm_time
from repro.profiling.profile_run import ComputeProfile
from repro.units import GB


@dataclass(frozen=True)
class LatencyModelOptions:
    """Ablation switches for the latency model.

    Attributes:
        hidden_critical_path: multiply the bubble term by ``n_mb/pp``
            (Pipette, Eq. 3) instead of paying inter-stage
            communication once (prior art, Eq. 1).
        collective_efficiency: attained fraction of the alpha-beta
            all-reduce model for the data-parallel term.  Pipette
            profiles the collective (NCCL-tests) and therefore knows
            the attained value; prior art assumes the ideal 1.0.
        dp_exposure_aware: account for *every* stage's data-parallel
            all-reduce, net of the drain slack it hides behind
            (stage ``s`` finishes its backwards about ``s`` backward
            passes before stage 0, so only the excess of its
            all-reduce over that slack lands on the critical path).
            Eq. (6) literally models only the first stage; exposure
            awareness extends the same reasoning so the annealer
            cannot "hide" slow links by moving them to stage 1's
            group.  Off reproduces the literal paper model.

    The matrix Eqs. (5)-(6) read is an argument, not an option:
    Pipette hands in the profiled matrix, prior art the nominal one.
    """

    hidden_critical_path: bool = True
    collective_efficiency: float = 1.0
    dp_exposure_aware: bool = False

    def __post_init__(self) -> None:
        # The DP term is divided by it: NaN, 0, negatives and inf
        # would poison, crash, subtract or erase that term.
        eff = self.collective_efficiency
        if isinstance(eff, bool) or not isinstance(eff, numbers.Real) \
                or not 0.0 < eff <= 1.0:
            raise ValueError(f"collective_efficiency must be a number in "
                             f"(0, 1], got {eff!r}")


def refuse_unusable_bandwidth(bandwidth: BandwidthMatrix) -> None:
    """Raise ``ValueError`` unless every entry of ``bandwidth`` is positive.

    NaN is a failed measurement, and zero or a negative value is a dead
    or broken link; none of them is a bandwidth.  Scored, they split
    the two latency paths: the reference model's Python ``min``/``max``
    and the kernel's NumPy reductions order NaN differently, a zero
    link divides by zero in the reference's pipeline and ring terms
    but scores ``inf`` (or ``nan``) in the kernel, and a negative link
    yields a finite nonsense latency.  Both paths refuse the matrix
    here instead, with one message.  A :class:`BandwidthMatrix` may
    still hold such entries (drift detection and epoch fingerprints
    read them); it just cannot be planned against.  The ``+inf``
    diagonal passes.
    """
    if not (bandwidth.matrix > 0).all():
        raise ValueError("bandwidth matrix has a NaN, zero or negative "
                         "entry (a failed measurement or a dead link); "
                         "re-profile before planning")


def _compute_and_tp(model: TransformerConfig, config: ParallelConfig,
                    mapping: Mapping, bandwidth: BandwidthMatrix,
                    profile: ComputeProfile) -> float:
    """The scalar ``C + T_TP_com`` of the latency equations.

    The straggler stage sets the pace, so the maximum over stages and
    over mapped TP groups is used.
    """
    c = profile.max_stage_compute_time(config.pp, config.tp, config.micro_batch)
    tp_factor = 1.0
    if config.recompute:
        # Recomputation re-runs the forward pass during backward:
        # 4/3 of the compute and 3/2 of the tensor-parallel traffic.
        c *= 4.0 / 3.0
        tp_factor = 1.5
    if config.tp == 1:
        return c
    worst_tp = 0.0
    max_layers = stage_layer_count(model.n_layers, config.pp, 0)
    for x in (0, config.pp - 1) if config.pp > 1 else (0,):
        for z in range(config.dp):
            group = mapping.tp_group(x, z)
            bw = bandwidth.min_over_group(group)
            t = tp_comm_time(model, max_layers, config.micro_batch,
                             config.tp, bw)
            worst_tp = max(worst_tp, t)
    return c + tp_factor * worst_tp


def _pp_path_time(model: TransformerConfig, config: ParallelConfig,
                  mapping: Mapping, bandwidth: BandwidthMatrix) -> float:
    """Eq. (5): slowest end-to-end pipeline communication path.

    ``max over (y, z)`` of the per-chain sum of ``2 msg_PP / B`` over
    adjacent stages — the factor 2 covers the forward activation and
    backward gradient crossings.
    """
    if config.pp == 1:
        return 0.0
    msg = pp_message_bytes(model, config.micro_batch)
    worst = 0.0
    for z in range(config.dp):
        for y in range(config.tp):
            total = 0.0
            for x in range(config.pp - 1):
                g1 = mapping.gpu(x, y, z)
                g2 = mapping.gpu(x + 1, y, z)
                total += 2.0 * msg / (bandwidth.between(g1, g2) * GB)
            worst = max(worst, total)
    return worst


def _stage_dp_time(model: TransformerConfig, config: ParallelConfig,
                   mapping: Mapping, bandwidth: BandwidthMatrix,
                   stage: int) -> float:
    """Eq. (6) for one stage: hierarchical-ring all-reduce duration.

    Two intra-node all-reduces plus one inter-node all-reduce, each
    gated by the slowest participating link; worst tensor group.
    """
    if config.dp == 1:
        return 0.0
    msg = dp_message_bytes(model, config.pp, config.tp, stage=stage)
    cluster = mapping.cluster
    worst = 0.0
    for y in range(config.tp):
        group = mapping.dp_group(stage, y)
        by_node: dict[int, list[int]] = {}
        for g in group:
            by_node.setdefault(cluster.node_of(g), []).append(g)
        intra = 0.0
        for members in by_node.values():
            k = len(members)
            if k > 1:
                bw = bandwidth.min_over_group(members)
                intra = max(intra, 4.0 * (k - 1) * msg / (k * bw * GB))
        inter = 0.0
        nodes = sorted(by_node)
        k = len(nodes)
        if k > 1:
            leaders = [by_node[n][0] for n in nodes]
            bw = bandwidth.min_over_group(leaders)
            inter = 2.0 * (k - 1) * msg / (k * bw * GB)
        worst = max(worst, intra + inter)
    return worst


def _dp_time(model: TransformerConfig, config: ParallelConfig,
             mapping: Mapping, bandwidth: BandwidthMatrix,
             backward_slack_s: float = 0.0,
             exposure_aware: bool = False) -> float:
    """Critical-path data-parallel communication time.

    The first pipeline stage's all-reduce is fully exposed (its
    backward finishes last — Eq. 6).  With ``exposure_aware``, later
    stages' all-reduces are also charged for whatever exceeds their
    drain slack of ``stage * backward_slack_s``.
    """
    if config.dp == 1:
        return 0.0
    exposed = _stage_dp_time(model, config, mapping, bandwidth, 0)
    if exposure_aware:
        for stage in range(1, config.pp):
            t = _stage_dp_time(model, config, mapping, bandwidth, stage)
            exposed = max(exposed, t - stage * backward_slack_s)
    return exposed


def latency_with_options(model: TransformerConfig, config: ParallelConfig,
                         mapping: Mapping, bandwidth: BandwidthMatrix,
                         profile: ComputeProfile,
                         options: LatencyModelOptions) -> float:
    """Evaluate the latency model under explicit ablation options.

    With both options on this is :func:`pipette_latency`; with both
    off and the nominal matrix handed in it is
    :func:`prior_art_latency`.  A matrix with a NaN, zero or negative
    entry raises ``ValueError`` (:func:`refuse_unusable_bandwidth`).
    """
    refuse_unusable_bandwidth(bandwidth)
    pp, n_mb = config.pp, config.n_microbatches
    c_tp = _compute_and_tp(model, config, mapping, bandwidth, profile)
    t_pp = _pp_path_time(model, config, mapping, bandwidth)
    # A stage's backward pass is the drain slack unit: stage s finishes
    # about s backward passes before stage 0 does.
    backward_slack = 2.0 * c_tp / 3.0
    t_dp = _dp_time(model, config, mapping, bandwidth,
                    backward_slack_s=backward_slack,
                    exposure_aware=options.dp_exposure_aware) \
        / options.collective_efficiency

    if options.hidden_critical_path:
        # Eq. (3)-(4) generalized per schedule: the schedule's own
        # analytic critical time (for 1F1B, verbatim
        # ``T_bubble * (n_mb / pp) + T_straggler``), plus T_DP.
        from repro.sim.schedule import pipeline_critical_time

        critical = pipeline_critical_time(config.schedule, pp, n_mb,
                                          c_tp, t_pp)
        return critical + t_dp
    # Eq. (1): the inter-stage communication is paid only once.
    return (n_mb - 1) * c_tp + pp * c_tp + t_pp + t_dp


def pipette_latency(model: TransformerConfig, config: ParallelConfig,
                    mapping: Mapping, bandwidth: BandwidthMatrix,
                    profile: ComputeProfile) -> float:
    """Pipette's latency estimate ``T_Pipette`` (Eqs. 3-6).

    Args:
        bandwidth: the *profiled* bandwidth matrix (Algorithm 1 line 1).
    """
    from repro.sim.engine import DEFAULT_DP_EFFICIENCY

    return latency_with_options(
        model, config, mapping, bandwidth, profile,
        LatencyModelOptions(hidden_critical_path=True,
                            collective_efficiency=DEFAULT_DP_EFFICIENCY,
                            dp_exposure_aware=True))


def prior_art_latency(model: TransformerConfig, config: ParallelConfig,
                      mapping: Mapping, nominal_bandwidth: BandwidthMatrix,
                      profile: ComputeProfile) -> float:
    """The prior-art estimate ``T_prev`` (Eq. 1), as AMP/Varuna compute it.

    Args:
        nominal_bandwidth: the document-specified matrix
            (:meth:`repro.cluster.fabric.Fabric.nominal_bandwidth`).
    """
    return latency_with_options(model, config, mapping, nominal_bandwidth,
                                profile,
                                LatencyModelOptions(hidden_critical_path=False))
