"""Gateway throughput: concurrent clients vs serial submission.

Two claims, one per test:

* **Concurrency wins wall-clock without changing answers.**  Four
  clients ask four *distinct* planning questions (one per cluster of a
  four-cluster fleet) at the same moment.  Submitted serially to bare
  synchronous services — the only option before the gateway — the
  searches run back to back.  Submitted concurrently through the
  gateway, the per-cluster lanes drain in parallel threads and every
  search fans its candidate work over the shared process
  :class:`~repro.service.executor.CandidateExecutor`, so the fleet
  answers in a fraction of the serial wall-clock (>= 2x on a >= 4-core
  planner host) while every plan stays byte-identical to its serial
  twin (``to_payload``, net of stopwatch fields — the determinism
  contract of the seeded search).
* **Coalescing makes identical storms cost one search.**  Eight
  clients asking the *same* question concurrently produce exactly one
  miss and seven coalesced answers sharing the one result object.
"""

import asyncio
import json
import statistics
import time

import pytest
from conftest import run_once

from repro.cluster import NetworkProfiler, make_fabric
from repro.cluster.presets import mid_range_cluster
from repro.core import PipetteOptions, SAOptions
from repro.model import get_model
from repro.service import (
    CandidateExecutor,
    ClusterRegistry,
    PlanGateway,
    PlanningService,
    available_workers,
)

SEED = 2
N_CLUSTERS = 4
N_NODES = 2
GLOBAL_BATCH = 64
#: Timings of each half of the concurrent-vs-serial comparison.
ROUNDS = 5
OPTIONS = PipetteOptions(sa=SAOptions(max_iterations=1200), sa_top_k=4,
                         seed=SEED)

#: ``to_payload`` fields that time the search instead of describing
#: the plan; equal plans time differently run to run.
_STOPWATCH_FIELDS = ("memory_check_s", "annealing_s", "total_s")


def _plan_bytes(result) -> str:
    payload = result.to_payload()
    for field in _STOPWATCH_FIELDS:
        payload.pop(field, None)
    return json.dumps(payload, sort_keys=True)


def _fleet():
    """N distinct small clusters (one fabric draw each) + their model."""
    world = []
    for index in range(N_CLUSTERS):
        cluster = mid_range_cluster(n_nodes=N_NODES)
        seed = SEED + index
        network = NetworkProfiler().profile(make_fabric(cluster, seed=seed),
                                            seed=seed)
        world.append((f"mid-{index}", cluster, network.bandwidth, seed))
    return world, get_model("gpt-1.1b")


def _serial_submission(world, model):
    """One bare synchronous service per cluster, planned one after
    another: the pre-gateway workflow.  Returns (seconds, plans)."""
    payloads = {}
    t0 = time.perf_counter()
    for name, cluster, bandwidth, seed in world:
        service = PlanningService(cluster, bandwidth, profile_seed=seed)
        response = service.plan(service.request(model, GLOBAL_BATCH,
                                                options=OPTIONS))
        payloads[name] = _plan_bytes(response.result)
    return time.perf_counter() - t0, payloads


def _concurrent_submission(world, model):
    """Fresh caches, same questions, one gateway over per-cluster lanes
    and the shared process pool.  Returns (seconds, plans, workers)."""
    with CandidateExecutor() as executor:
        registry = ClusterRegistry(executor=executor)
        for name, cluster, bandwidth, seed in world:
            registry.add_cluster(name, cluster, bandwidth, profile_seed=seed)
        requests = [
            (name, registry.service(name).request(model, GLOBAL_BATCH,
                                                  options=OPTIONS))
            for name, *_ in world]

        async def storm():
            async with PlanGateway(registry) as gateway:
                t0 = time.perf_counter()
                answers = await asyncio.gather(
                    *(gateway.plan(request, cluster=name)
                      for name, request in requests))
                return answers, time.perf_counter() - t0

        answers, seconds = asyncio.run(storm())
        workers = executor.n_workers
    return seconds, {a.cluster_name: _plan_bytes(a.result)
                     for a in answers}, workers


def test_concurrent_distinct_requests_vs_serial(benchmark):
    """4 concurrent distinct requests: >= 2x wall-clock, same bytes.

    One timing of each half is bimodal on a loaded small host, so each
    half is timed :data:`ROUNDS` times, alternating, and the medians
    are compared.
    """
    world, model = _fleet()

    def collect():
        serial_runs, concurrent_runs = [], []
        for _ in range(ROUNDS):
            serial_s, serial_payloads = _serial_submission(world, model)
            concurrent_s, concurrent_payloads, workers = \
                _concurrent_submission(world, model)
            # Identity holds on every host and every round: concurrency
            # may move wall-clock, never answers.
            assert set(concurrent_payloads) == set(serial_payloads)
            for name, expected in serial_payloads.items():
                assert concurrent_payloads[name] == expected, \
                    f"{name}: concurrent plan diverged from serial submission"
            serial_runs.append(serial_s)
            concurrent_runs.append(concurrent_s)
        return serial_runs, concurrent_runs, workers

    serial_runs, concurrent_runs, workers = run_once(benchmark, collect)
    serial_s = statistics.median(serial_runs)
    concurrent_s = statistics.median(concurrent_runs)
    speedup = serial_s / concurrent_s
    print(f"\nserial submission:     {serial_s:7.2f} s median "
          f"({N_CLUSTERS} distinct requests, back to back; runs "
          f"{', '.join(f'{t:.2f}' for t in serial_runs)})")
    print(f"concurrent via gateway: {concurrent_s:6.2f} s median "
          f"({workers} process workers, {N_CLUSTERS} lanes; runs "
          f"{', '.join(f'{t:.2f}' for t in concurrent_runs)})")
    print(f"speedup of medians:    {speedup:7.2f}x")

    if workers < 2:
        pytest.skip("single usable CPU: concurrent drains cannot beat "
                    "serial wall-clock here")
    # The full >= 2x claim needs enough cores for the four searches'
    # fanned candidate work to actually overlap.
    target = 2.0 if workers >= 4 else 1.2
    assert speedup >= target, \
        f"expected >= {target}x on {workers} workers, got {speedup:.2f}x"


def test_identical_storm_coalesces_to_one_search(benchmark):
    """8 identical concurrent clients: one miss, seven shared answers."""
    world, model = _fleet()
    name, cluster, bandwidth, seed = world[0]

    def collect():
        registry = ClusterRegistry()
        registry.add_cluster(name, cluster, bandwidth, profile_seed=seed)
        service = registry.service(name)
        request = service.request(model, GLOBAL_BATCH, options=OPTIONS)

        async def storm():
            async with PlanGateway(registry) as gateway:
                t0 = time.perf_counter()
                answers = await asyncio.gather(
                    *(gateway.plan(request) for _ in range(8)))
                return answers, time.perf_counter() - t0, gateway.stats

        answers, elapsed_s, stats = asyncio.run(storm())
        reference = PlanningService(cluster, bandwidth, profile_seed=seed)
        baseline = reference.plan(reference.request(model, GLOBAL_BATCH,
                                                    options=OPTIONS))
        return answers, elapsed_s, stats, service.stats, \
            _plan_bytes(baseline.result)

    answers, elapsed_s, stats, service_stats, baseline = \
        run_once(benchmark, collect)
    statuses = sorted(a.status for a in answers)
    print(f"\n8 identical clients answered in {elapsed_s:.2f} s: "
          f"{statuses.count('miss')} miss, "
          f"{statuses.count('coalesced')} coalesced")
    print(f"gateway stats: {stats}")
    assert statuses == ["coalesced"] * 7 + ["miss"]
    assert stats.submitted == 1 and stats.coalesced == 7
    assert service_stats["cache_misses"] == 1  # exactly one search ran
    first = answers[0].result
    assert all(a.result is first for a in answers)
    assert _plan_bytes(first) == baseline
