"""Planning-service throughput: cache, parallel search, elastic re-plan.

Three claims, one per test:

* a cache hit answers a repeated request >= 10x faster than the cold
  search that produced it (in practice: microseconds vs seconds);
* fanning candidate evaluation over a process pool beats the serial
  search wall-clock on a multi-candidate search — while returning the
  *identical* ranking under fixed seeds (asserted on every host; the
  wall-clock claim is skipped where only one CPU is usable, since no
  pool can beat serial there);
* after a single-node failure, warm-started re-planning reaches within
  5% of the cold search's estimated latency in less search time.
"""

import time

import pytest
from conftest import run_once

from repro.cluster import NetworkProfiler, make_fabric
from repro.cluster.presets import mid_range_cluster
from repro.core import PipetteConfigurator, PipetteOptions, SAOptions
from repro.model import get_model
from repro.service import (
    CandidateExecutor,
    ClusterEvent,
    PlanningService,
    available_workers,
)

#: One concrete fabric draw, like the other macro-benchmarks.
SEED = 2

#: Search shape: enough candidates to keep a pool busy, annealing
#: budget large enough that the refinement dominates.
N_NODES = 4
GLOBAL_BATCH = 64
OPTIONS = PipetteOptions(sa=SAOptions(max_iterations=1200), sa_top_k=4,
                         seed=SEED)


def _world():
    cluster = mid_range_cluster(n_nodes=N_NODES)
    fabric = make_fabric(cluster, seed=SEED)
    network = NetworkProfiler().profile(fabric, seed=SEED)
    model = get_model("gpt-1.1b")
    return cluster, network.bandwidth, model


def _ranking_signature(result):
    return [(r.config, r.estimated_latency_s,
             r.mapping.block_to_slot.tolist()) for r in result.ranked]


def test_cache_hit_speedup(benchmark):
    """A repeated request is served from cache >= 10x faster than cold."""
    cluster, bandwidth, model = _world()

    def collect():
        service = PlanningService(cluster, bandwidth, profile_seed=SEED)
        request = service.request(model, GLOBAL_BATCH, options=OPTIONS)
        cold = service.plan(request)
        hot = service.plan(request)
        return cold, hot, service.stats

    cold, hot, stats = run_once(benchmark, collect)
    print(f"\ncold search: {cold.elapsed_s * 1e3:10.1f} ms  [{cold.status}]")
    print(f"cache hit:   {hot.elapsed_s * 1e3:10.3f} ms  [{hot.status}]")
    print(f"speedup:     {cold.elapsed_s / hot.elapsed_s:10.0f}x")
    print(f"stats: {stats}")
    assert cold.status == "miss" and hot.status == "hit"
    assert hot.result is cold.result
    assert cold.elapsed_s >= 10 * hot.elapsed_s


def test_parallel_candidate_evaluation(benchmark):
    """Pooled search returns the serial ranking; faster on multi-core."""
    cluster, bandwidth, model = _world()

    def collect():
        t0 = time.perf_counter()
        serial = PipetteConfigurator(
            cluster, model, bandwidth,
            _profile(model, cluster), None,
            options=OPTIONS).search(GLOBAL_BATCH)
        serial_s = time.perf_counter() - t0
        with CandidateExecutor() as executor:
            t0 = time.perf_counter()
            parallel = PipetteConfigurator(
                cluster, model, bandwidth,
                _profile(model, cluster), None,
                options=OPTIONS).search(GLOBAL_BATCH, executor=executor)
            parallel_s = time.perf_counter() - t0
            workers = executor.n_workers
        return serial, serial_s, parallel, parallel_s, workers

    serial, serial_s, parallel, parallel_s, workers = run_once(benchmark,
                                                               collect)
    print(f"\ncandidates ranked: {len(serial.ranked)}, "
          f"SA-refined: {min(OPTIONS.sa_top_k, len(serial.ranked))}")
    print(f"serial:   {serial_s:7.2f} s")
    print(f"parallel: {parallel_s:7.2f} s  ({workers} process workers, "
          f"{serial_s / parallel_s:.2f}x)")
    # Identity holds regardless of host parallelism — that is the
    # determinism contract of the per-candidate seeds.
    assert _ranking_signature(parallel) == _ranking_signature(serial)
    if workers < 2:
        pytest.skip("single usable CPU: a pool cannot beat serial here")
    assert parallel_s < serial_s


def test_warm_replan_vs_cold_search(benchmark):
    """Warm re-plan after one node failure: <= 5% latency, less time."""
    cluster, bandwidth, model = _world()

    def collect():
        service = PlanningService(cluster, bandwidth, profile_seed=SEED)
        request = service.request(model, GLOBAL_BATCH, options=OPTIONS)
        return service.replan(request, ClusterEvent.node_failure(1))

    report = run_once(benchmark, collect)
    print(f"\nprevious:  {report.previous.config.describe():<24} "
          f"{report.previous.estimated_latency_s:7.3f} s/iter "
          f"on {N_NODES} nodes")
    print(f"warm:      {report.warm.config.describe():<24} "
          f"{report.warm.estimated_latency_s:7.3f} s/iter "
          f"in {report.warm_search_s:6.2f} s "
          f"(start was {report.warm_start_latency_s:.3f})")
    print(f"cold:      {report.cold.config.describe():<24} "
          f"{report.cold.estimated_latency_s:7.3f} s/iter "
          f"in {report.cold_search_s:6.2f} s")
    print(f"latency gap: {report.latency_gap * 100:+.2f}%   "
          f"search speedup: {report.search_speedup:.1f}x")
    assert report.cluster.n_nodes == N_NODES - 1
    assert report.latency_gap <= 0.05
    assert report.warm_search_s < report.cold_search_s


def _profile(model, cluster):
    from repro.profiling import profile_compute
    return profile_compute(model, cluster, seed=SEED)
