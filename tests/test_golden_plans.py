"""Pinned literals: a seeded anneal and a seeded cold search.

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

from repro.cluster import NetworkProfiler, make_fabric
from repro.cluster.presets import mid_range_cluster
from repro.core import PipetteOptions, SAOptions
from repro.core.annealing import anneal_mapping
from repro.core.latency_kernel import pipette_kernel
from repro.model import get_model
from repro.parallel import ParallelConfig, WorkerGrid, sequential_mapping
from repro.profiling import profile_compute
from repro.service import PlanningService

#: ``PipetteResult.to_payload`` fields that time the search.
STOPWATCH_FIELDS = ("memory_check_s", "annealing_s", "total_s")


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
    digest = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()
    assert digest == \
        "4a29311b44c7994141d9c8488f33b2fb90d4ad30c599f4a4aafee6a3a84ca753"
