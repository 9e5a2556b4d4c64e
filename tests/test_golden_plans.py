"""Pinned literals: a seeded anneal, a seeded cold search and the
four warm answers of the elastic path.

The seed-identity tests compare the annealer with the reference loop
in ``tests/annealing_oracle.py``; a change that moved both together —
to the draw rules, the move set or the kernel's floats — would pass
them.  These literals would not: they were recorded from the
``Generator``-drawing annealer and must never move unless the plan
contract is deliberately broken (and every cached plan with it).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.cluster import NetworkProfiler, make_fabric
from repro.cluster.fabric import BandwidthMatrix
from repro.cluster.presets import mid_range_cluster
from repro.core import PipetteOptions, SAOptions
from repro.core.annealing import anneal_mapping
from repro.core.latency_kernel import pipette_kernel
from repro.model import get_model
from repro.parallel import ParallelConfig, WorkerGrid, sequential_mapping
from repro.profiling import profile_compute
from repro.service import ClusterEvent, PlanningService

#: ``PipetteResult.to_payload`` fields that time the search.
STOPWATCH_FIELDS = ("memory_check_s", "annealing_s", "total_s")


def _digest(body: dict) -> str:
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()


def test_seeded_tiny_anneal(tiny_cluster, tiny_fabric, toy_model):
    config = ParallelConfig(pp=4, tp=2, dp=2, micro_batch=2, global_batch=16)
    profile = profile_compute(toy_model, tiny_cluster, noise_sigma=0.0)
    kernel = pipette_kernel(toy_model, config, tiny_cluster,
                            tiny_fabric.bandwidth(), profile)
    result = anneal_mapping(
        sequential_mapping(WorkerGrid(4, 2, 2), tiny_cluster), kernel,
        SAOptions(max_iterations=500, seed=7, portfolio_k=3))
    assert result.mapping.block_to_slot.tolist() == [0, 1, 6, 7, 3, 4, 2, 5]
    assert result.value.hex() == "0x1.a5520a784eec7p-9"
    assert result.accepted == 417
    assert len(result.history) == 5
    assert [(m.block_to_slot.tolist(), v.hex())
            for m, v in result.portfolio] == [
        ([0, 1, 6, 7, 3, 4, 2, 5], "0x1.a5520a784eec7p-9"),
        ([0, 1, 7, 6, 3, 4, 2, 5], "0x1.a5520a784eec7p-9"),
        ([0, 1, 2, 7, 3, 4, 6, 5], "0x1.a55427d320483p-9"),
    ]


def test_two_node_cold_search_payload():
    """The CLI's ``plan --nodes 2 --global-batch 32 --sa-iterations 300``."""
    cluster = mid_range_cluster(2)
    network = NetworkProfiler().profile(make_fabric(cluster, seed=0), seed=0)
    service = PlanningService(cluster, network.bandwidth, profile_seed=0)
    options = PipetteOptions(sa=SAOptions(max_iterations=300, portfolio_k=4),
                             seed=0)
    response = service.plan(service.request(get_model("gpt-1.1b"), 32,
                                            options=options))
    body = {k: v for k, v in response.result.to_payload().items()
            if k not in STOPWATCH_FIELDS}
    assert _digest(body) == \
        "4a29311b44c7994141d9c8488f33b2fb90d4ad30c599f4a4aafee6a3a84ca753"


# ----------------------------------------------------------- elastic answers
#
# The four warm answers of the elastic path, each polished from a warm
# start: a template answer to a plan request after a failure, and the
# template, re-rank and drift branches of a re-plan.

ELASTIC = PipetteOptions(sa=SAOptions(max_iterations=60, portfolio_k=2),
                         sa_top_k=2, seed=5)
ELASTIC_BATCH = 16


def _report_digest(report) -> str:
    return _digest({"warm": report.warm.to_payload(),
                    "warm_source": report.warm_source,
                    "warm_start_latency_s":
                        report.warm_start_latency_s.hex()})


def _elastic_service(tiny_cluster, tiny_network, toy_model, templates,
                     global_batch=ELASTIC_BATCH):
    service = PlanningService(tiny_cluster, tiny_network.bandwidth)
    if templates:
        service.warm_templates(toy_model, global_batch, options=ELASTIC)
    return service, service.request(toy_model, global_batch, options=ELASTIC)


def test_template_answer_after_failure(tiny_cluster, tiny_network, toy_model):
    service, _ = _elastic_service(tiny_cluster, tiny_network, toy_model,
                                  templates=True)
    service.apply_failure(3)
    response = service.plan(service.request(toy_model, ELASTIC_BATCH,
                                            options=ELASTIC))
    assert service.stats["template_lookups"]["hit"] == 1
    body = {k: v for k, v in response.result.to_payload().items()
            if k not in STOPWATCH_FIELDS}
    assert _digest(body) == \
        "9c2540e24b10a4821093ef80e79b1ef5b114a57932a7058bd028f755cd21bbff"


def test_template_failure_replan(tiny_cluster, tiny_network, toy_model):
    service, request = _elastic_service(tiny_cluster, tiny_network,
                                        toy_model, templates=True)
    report = service.replan(request, ClusterEvent.node_failure(3),
                            run_cold=False)
    assert report.warm_source == "template"
    assert _report_digest(report) == \
        "83280926b783b817e5a84b45cf2d2c2f6098f0b31ffbbde549df8f89c5d3d643"


def test_rerank_failure_replan(tiny_cluster, tiny_network, toy_model):
    service, request = _elastic_service(tiny_cluster, tiny_network,
                                        toy_model, templates=False)
    report = service.replan(request, ClusterEvent.node_failure(1),
                            run_cold=False)
    assert report.warm_source == "cold"
    assert _report_digest(report) == \
        "33366cda5528a5adaf43b1d514b24b6a037afbf888d349cdf60d26731e01ce37"


def test_drift_replan(tiny_cluster, tiny_network, toy_model):
    # At global batch 32 the drifted leader keeps the previous shape,
    # so the previous plan's own mapping starts the polish.
    service, request = _elastic_service(tiny_cluster, tiny_network,
                                        toy_model, templates=False,
                                        global_batch=32)
    bw = tiny_network.bandwidth
    scale = np.random.default_rng(11).uniform(0.8, 1.0, bw.matrix.shape)
    drifted = BandwidthMatrix(matrix=bw.matrix * (scale + scale.T) / 2,
                              alpha=bw.alpha)
    report = service.replan(request, ClusterEvent.bandwidth_drift(),
                            new_bandwidth=drifted, run_cold=False)
    assert report.warm_source == "best"
    assert _report_digest(report) == \
        "0aa8e7dfab01673615774417282616d265fd622a07452ec599fed54d2b4efeb7"
