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
import pytest

from repro.cluster import NetworkProfiler, make_fabric
from repro.cluster.fabric import BandwidthMatrix
from repro.cluster.presets import high_end_cluster, mid_range_cluster
from repro.core import PipetteOptions, SAOptions
from repro.core.annealing import anneal_mapping
from repro.core.latency_kernel import pipette_kernel
from repro.model import get_model
from repro.parallel import (
    ParallelConfig,
    WorkerGrid,
    random_block_mapping,
    sequential_mapping,
)
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


# ------------------------------------------------------- Table-1 anneals
#
# Seeded 3,000-iteration anneals on the 16-node mid-range preset, one
# per slot layout the kernel distinguishes: two slots per node
# (pp4-tp4-dp8, the costliest cold-search grid), four (a tp2 grid) and
# one slot per node with pp == 1, whose value is the same for every
# permutation but whose accepted count and portfolio still follow the
# trajectory; pp2-tp4-dp16 reads its pipeline chains as single hops,
# and pp8-tp4-dp4 spreads two-slot nodes over eight short ring stages.
# ``runners`` are the portfolio entries after the best.

TABLE1_ANNEALS = [
    {"grid": (1, 8, 16),
     "seed": 13,
     "block_to_slot": [7, 1, 2, 15, 8, 0, 4, 6, 5, 11, 3, 10, 13, 14, 9, 12],
     "value": "0x1.6d3be6ac5de80p+0",
     "accepted": 3000,
     "history": 1,
     "runners": [[[0, 1, 5, 11, 6, 10, 3, 8, 7, 9, 12, 13, 15, 2, 4, 14],
                  "0x1.6d3be6ac5de80p+0"],
                 [[0, 1, 5, 11, 6, 10, 3, 8, 7, 12, 2, 13, 15, 9, 4, 14],
                  "0x1.6d3be6ac5de80p+0"]]},
    {"grid": (4, 4, 8),
     "seed": 11,
     "block_to_slot": [12, 21, 24, 13, 25, 0, 20, 1, 23, 8, 10, 22, 26, 19,
                       17, 2, 27, 7, 14, 15, 3, 4, 31, 16, 29, 18, 30, 11, 5,
                       9, 28, 6],
     "value": "0x1.346154a9b40b8p+0",
     "accepted": 921,
     "history": 40,
     "runners": [[[12, 21, 24, 13, 25, 0, 20, 1, 23, 8, 10, 22, 26, 18, 17, 2,
                   27, 7, 14, 15, 3, 4, 31, 16, 29, 19, 30, 11, 5, 9, 28, 6],
                  "0x1.346f16be181b4p+0"],
                 [[12, 21, 24, 13, 25, 0, 20, 1, 23, 8, 10, 22, 26, 9, 17, 2,
                   27, 7, 14, 15, 3, 4, 31, 16, 29, 18, 30, 11, 5, 19, 28,
                   6],
                  "0x1.34ac2444373e4p+0"]]},
    {"grid": (4, 2, 16),
     "seed": 12,
     "block_to_slot": [24, 25, 26, 20, 36, 41, 38, 23, 40, 5, 43, 42, 22, 37,
                       4, 7, 56, 17, 34, 48, 2, 12, 54, 11, 18, 31, 32, 6, 15,
                       52, 16, 27, 51, 9, 46, 49, 58, 33, 13, 62, 57, 3, 35,
                       53, 47, 8, 0, 1, 60, 55, 45, 19, 14, 21, 61, 10, 59,
                       50, 44, 39, 30, 63, 28, 29],
     "value": "0x1.8cff069d13ff8p+0",
     "accepted": 1008,
     "history": 43,
     "runners": [[[24, 25, 26, 20, 36, 41, 38, 23, 40, 5, 43, 42, 22, 37, 4,
                   7, 56, 17, 34, 48, 2, 12, 44, 9, 18, 31, 32, 6, 15, 52, 16,
                   27, 51, 11, 46, 49, 58, 33, 13, 62, 57, 3, 35, 53, 47, 8,
                   0, 1, 39, 60, 54, 19, 61, 21, 14, 10, 59, 50, 45, 55, 30,
                   63, 28, 29],
                  "0x1.8cff069d13ff8p+0"],
                 [[24, 25, 26, 20, 36, 41, 38, 23, 40, 5, 43, 42, 22, 37, 4,
                   7, 56, 17, 34, 48, 2, 12, 44, 11, 18, 31, 32, 6, 15, 52,
                   16, 27, 51, 9, 46, 49, 58, 33, 13, 62, 57, 3, 35, 53, 47,
                   8, 0, 1, 39, 60, 54, 19, 61, 21, 14, 10, 59, 50, 45, 55,
                   30, 63, 28, 29],
                  "0x1.8cff069d13ff8p+0"]]},
    {"grid": (2, 4, 16),
     "seed": 15,
     "block_to_slot": [22, 16, 4, 17, 26, 12, 13, 9, 8, 10, 23, 15, 5, 11,
                       14, 27, 19, 2, 6, 3, 25, 24, 30, 29, 28, 20, 7, 0, 18,
                       21, 31, 1],
     "value": "0x1.5de9ad7c088b4p+0",
     "accepted": 881,
     "history": 19,
     "runners": [[[22, 16, 4, 17, 26, 12, 13, 9, 8, 10, 23, 15, 5, 11, 14,
                   27, 19, 2, 6, 3, 25, 24, 30, 7, 28, 20, 29, 0, 18, 21, 31,
                   1],
                  "0x1.5de9ad7c088b4p+0"],
                 [[11, 22, 23, 4, 10, 15, 12, 5, 26, 13, 8, 17, 16, 9, 27, 14,
                   21, 18, 29, 19, 25, 30, 0, 24, 28, 2, 7, 3, 31, 20, 1, 6],
                  "0x1.5deb3cd0312b1p+0"]]},
    {"grid": (8, 4, 4),
     "seed": 16,
     "block_to_slot": [4, 5, 30, 27, 9, 28, 19, 13, 18, 29, 6, 16, 24, 1, 8,
                       23, 10, 0, 21, 12, 14, 7, 17, 22, 11, 26, 31, 2, 15,
                       20, 25, 3],
     "value": "0x1.81762dca23ad3p+0",
     "accepted": 1884,
     "history": 15,
     "runners": [[[4, 5, 30, 27, 9, 28, 19, 13, 18, 29, 6, 16, 24, 1, 8, 23,
                   10, 0, 21, 12, 14, 7, 17, 11, 26, 22, 31, 2, 15, 20, 25,
                   3],
                  "0x1.81762dca23ad3p+0"],
                 [[12, 29, 13, 28, 26, 22, 23, 21, 15, 14, 9, 20, 0, 11, 6,
                   31, 10, 24, 30, 16, 18, 7, 5, 27, 3, 1, 25, 17, 2, 19, 8,
                   4],
                  "0x1.823374def03f6p+0"]]},
]

#: The elastic polish's shape: the quarter-budget (750-iteration) anneal
#: on high-end pp2-tp8-dp8, whole-node slots with single-hop chains.
HIGH_END_POLISH = {
    "grid": (2, 8, 8),
    "seed": 14,
    "block_to_slot": [2, 9, 14, 0, 13, 12, 4, 5, 7, 8, 6, 1, 11, 15, 3, 10],
    "value": "0x1.1849392399344p-1",
    "accepted": 414,
    "history": 10,
    "runners": [[[2, 9, 14, 4, 13, 5, 12, 0, 7, 8, 6, 1, 11, 15, 3, 10],
                 "0x1.185353442b743p-1"],
                [[2, 9, 14, 4, 13, 12, 0, 5, 7, 8, 6, 1, 11, 15, 3, 10],
                 "0x1.185353442b743p-1"],
                [[2, 9, 14, 4, 13, 12, 5, 0, 7, 8, 6, 1, 11, 15, 3, 10],
                 "0x1.185353442b743p-1"]]}


def _world(cluster):
    network = NetworkProfiler().profile(make_fabric(cluster, seed=0), seed=0)
    model = get_model("gpt-1.1b")
    return cluster, network.bandwidth, model, profile_compute(model, cluster,
                                                              seed=0)


@pytest.fixture(scope="module")
def table1_world():
    return _world(mid_range_cluster(16))


def _check_anneal(world, pin, iterations, portfolio_k):
    cluster, bandwidth, model, profile = world
    pp, tp, dp = pin["grid"]
    config = ParallelConfig(pp=pp, tp=tp, dp=dp, micro_batch=2,
                            global_batch=256)
    kernel = pipette_kernel(model, config, cluster, bandwidth, profile)
    grid = WorkerGrid(pp, tp, dp)
    result = anneal_mapping(
        random_block_mapping(grid, cluster, seed=pin["seed"]), kernel,
        SAOptions(max_iterations=iterations, seed=pin["seed"],
                  portfolio_k=portfolio_k))
    assert result.mapping.block_to_slot.tolist() == pin["block_to_slot"]
    assert result.value.hex() == pin["value"]
    assert result.accepted == pin["accepted"]
    assert len(result.history) == pin["history"]
    assert [[m.block_to_slot.tolist(), v.hex()]
            for m, v in result.portfolio] == \
        [[pin["block_to_slot"], pin["value"]], *pin["runners"]]


@pytest.mark.parametrize("pin", TABLE1_ANNEALS,
                         ids=lambda pin: "pp{}-tp{}-dp{}".format(*pin["grid"]))
def test_seeded_table1_anneal(table1_world, pin):
    _check_anneal(table1_world, pin, iterations=3000, portfolio_k=3)


def test_seeded_high_end_polish_anneal():
    _check_anneal(_world(high_end_cluster(16)), HIGH_END_POLISH,
                  iterations=750, portfolio_k=4)


# ------------------------------------------------------- pp == 1 anneals
#
# Seeded 1,000-iteration anneals of the pp == 1 grids on nodes of two or
# more slots, whose ring reads only each node's leading slot: the three
# a 4-node mid-range cold search anneals first (32, 16 and 8 slots,
# eight, four and two per node) and a 16-node high-end tp2 grid.

PP1_ANNEALS = [
    {"preset": "mid-range",
     "nodes": 4,
     "grid": (1, 1, 32),
     "seed": 21,
     "block_to_slot": [11, 20, 12, 15, 29, 17, 8, 5, 7, 27, 28, 1, 26, 21, 30,
                       16, 10, 4, 9, 13, 18, 24, 6, 23, 3, 25, 22, 31, 19, 2,
                       0, 14],
     "value": "0x1.eaab6a546c5fdp+1",
     "accepted": 825,
     "history": 6,
     "runners": [[[11, 8, 5, 20, 7, 15, 21, 26, 10, 3, 27, 14, 9, 13, 2, 18,
                   28, 4, 17, 22, 31, 30, 25, 12, 19, 0, 1, 16, 6, 23, 24,
                   29],
                  "0x1.eaab6a546c5fdp+1"],
                 [[11, 8, 5, 20, 7, 21, 15, 19, 12, 25, 30, 31, 22, 17, 28, 4,
                   18, 2, 13, 9, 14, 27, 3, 10, 26, 16, 1, 0, 6, 23, 24, 29],
                  "0x1.eaab6a546c5fdp+1"]]},
    {"preset": "mid-range",
     "nodes": 4,
     "grid": (1, 2, 16),
     "seed": 22,
     "block_to_slot": [12, 11, 5, 1, 8, 4, 2, 15, 9, 3, 6, 0, 14, 7, 10, 13],
     "value": "0x1.ab63482d1dae4p+1",
     "accepted": 808,
     "history": 4,
     "runners": [[[1, 0, 2, 5, 8, 9, 11, 6, 12, 3, 4, 14, 7, 15, 13, 10],
                  "0x1.ab63482d1dae4p+1"],
                 [[1, 0, 2, 5, 8, 11, 9, 6, 12, 3, 4, 14, 7, 15, 13, 10],
                  "0x1.ab63482d1dae4p+1"]]},
    {"preset": "mid-range",
     "nodes": 4,
     "grid": (1, 4, 8),
     "seed": 23,
     "block_to_slot": [0, 4, 3, 2, 1, 6, 7, 5],
     "value": "0x1.b1920830316e7p+1",
     "accepted": 676,
     "history": 4,
     "runners": [[[0, 1, 4, 3, 5, 6, 7, 2], "0x1.b1920830316e7p+1"],
                 [[0, 1, 6, 3, 4, 2, 7, 5], "0x1.b1920830316e7p+1"]]},
    {"preset": "high-end",
     "nodes": 16,
     "grid": (1, 2, 64),
     "seed": 24,
     "block_to_slot": [50, 39, 54, 20, 53, 29, 15, 31, 10, 27, 35, 57, 11, 33,
                       3, 0, 18, 12, 8, 34, 28, 19, 56, 47, 48, 49, 61, 1, 13,
                       45, 43, 24, 46, 7, 4, 41, 52, 6, 36, 2, 55, 17, 42, 40,
                       59, 9, 44, 30, 58, 22, 23, 5, 51, 60, 38, 63, 21, 26,
                       16, 37, 25, 14, 32, 62],
     "value": "0x1.95cae37d57192p+0",
     "accepted": 895,
     "history": 7,
     "runners": [[[2, 20, 3, 32, 22, 1, 56, 16, 52, 29, 10, 26, 15, 38, 8, 51,
                   19, 55, 61, 37, 4, 54, 45, 43, 59, 21, 50, 39, 0, 47, 7,
                   49, 40, 18, 44, 14, 53, 30, 13, 48, 42, 27, 9, 25, 28, 41,
                   11, 58, 6, 24, 12, 46, 23, 5, 62, 31, 57, 35, 60, 17, 63,
                   33, 36, 34],
                  "0x1.95cae37d57192p+0"],
                 [[2, 20, 3, 32, 22, 1, 56, 16, 52, 29, 10, 26, 15, 38, 8, 51,
                   19, 55, 61, 37, 4, 54, 45, 43, 59, 48, 13, 30, 53, 14, 44,
                   18, 40, 49, 7, 47, 0, 39, 50, 21, 42, 27, 9, 25, 28, 41,
                   11, 58, 6, 24, 12, 46, 23, 5, 62, 31, 57, 35, 60, 17, 63,
                   33, 36, 34],
                  "0x1.95cae37d57192p+0"]]},
]


@pytest.mark.parametrize("pin", PP1_ANNEALS,
                         ids=lambda pin: "{}-{}n-pp{}-tp{}-dp{}".format(
                             pin["preset"], pin["nodes"], *pin["grid"]))
def test_seeded_pp1_anneal(pin):
    make = {"mid-range": mid_range_cluster, "high-end": high_end_cluster}
    _check_anneal(_world(make[pin["preset"]](pin["nodes"])), pin,
                  iterations=1000, portfolio_k=3)


def test_four_node_gpt_small_cold_search_payload():
    """A serve-hot prefill question: gpt-small at global batch 256 on the
    4-node mid-range preset, fabric, network and profile seeded 2, 200
    SA iterations on the top 4.  Its leaders are pp == 1 grids."""
    cluster = mid_range_cluster(4)
    network = NetworkProfiler().profile(make_fabric(cluster, seed=2), seed=2)
    service = PlanningService(cluster, network.bandwidth, profile_seed=2)
    options = PipetteOptions(sa=SAOptions(max_iterations=200), sa_top_k=4,
                             seed=1)
    response = service.plan(service.request(get_model("gpt-small"), 256,
                                            options=options))
    body = {k: v for k, v in response.result.to_payload().items()
            if k not in STOPWATCH_FIELDS}
    assert _digest(body) == \
        "53150be892a7efe90c9718143145e9f157f2ab8fc9a5bc293b50861962fb1550"
