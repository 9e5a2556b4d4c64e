"""The async gateway: coalescing, lanes, backpressure, fenced events.

The concurrency *identity* contract is the backbone of this module:
whatever N async clients observe through the gateway must be
byte-identical (via ``to_payload``) to what a fresh single-caller
service computes for the same requests — concurrency is allowed to
change wall-clock, never answers.
"""

import asyncio
import json
import sys
import threading

import numpy as np
import pytest
from conftest import metric_value, parse_prometheus

from repro.cluster import Fabric, HeterogeneityModel, NetworkProfiler
from repro.cluster.fabric import BandwidthMatrix
from repro.cluster.topology import ClusterSpec, GpuSpec, LinkSpec, NodeSpec
from repro.core import PipetteOptions
from repro.obs import TRACER
from repro.service import (
    ClusterRegistry,
    GatewayOverloadedError,
    GatewayResponse,
    MetricsRegistry,
    PlanGateway,
    PlanningService,
)
from repro.units import GIB

FAST = PipetteOptions(use_worker_dedication=False)


def _cluster(name: str, n_nodes: int = 2, flops: float = 10e12) -> ClusterSpec:
    gpu = GpuSpec(name=f"{name}-GPU", memory_bytes=4 * GIB, peak_flops=flops,
                  achievable_fraction=0.5, hbm_gb_s=500.0)
    node = NodeSpec(gpus_per_node=4, gpu=gpu,
                    intra_link=LinkSpec("NVL", 100.0, alpha_s=1e-6))
    return ClusterSpec(name=name, n_nodes=n_nodes, node=node,
                      inter_link=LinkSpec("IB", 10.0, alpha_s=1e-5))


def _bandwidth(cluster: ClusterSpec, seed: int) -> BandwidthMatrix:
    fabric = Fabric(cluster, heterogeneity=HeterogeneityModel(), seed=seed)
    return NetworkProfiler(n_rounds=2).profile(fabric, seed=seed).bandwidth


def _registry() -> ClusterRegistry:
    registry = ClusterRegistry()
    for name, seed in (("alpha", 1), ("beta", 2)):
        cluster = _cluster(name)
        registry.add_cluster(name, cluster, _bandwidth(cluster, seed))
    return registry


def _fresh_service(registry: ClusterRegistry, name: str) -> PlanningService:
    """A single-caller twin of a registered service (its own cache)."""
    service = registry.service(name)
    return PlanningService(service.cluster, service.bandwidth)


#: ``to_payload`` fields that are stopwatch readings of the search
#: itself, not part of the plan: two equal searches time differently.
_STOPWATCH_FIELDS = ("memory_check_s", "annealing_s", "total_s")


def _payload_bytes(result) -> str:
    payload = result.to_payload()
    for field in _STOPWATCH_FIELDS:
        payload.pop(field, None)
    return json.dumps(payload, sort_keys=True)


def run(coro):
    return asyncio.run(coro)


async def _wait_for(predicate, timeout_s: float = 5.0) -> None:
    for _ in range(int(timeout_s / 0.01)):
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("condition not reached in time")


class TestCoalescing:
    def test_identical_inflight_requests_share_one_search(self, toy_model):
        registry = _registry()
        request = registry.service("alpha").request(toy_model, 32,
                                                    options=FAST)

        async def scenario():
            async with PlanGateway(registry) as gateway:
                return await asyncio.gather(
                    *(gateway.plan(request) for _ in range(5)))

        answers = run(scenario())
        statuses = sorted(a.status for a in answers)
        assert statuses == ["coalesced"] * 4 + ["miss"]
        first = answers[0].result
        assert all(a.result is first for a in answers)
        stats = registry.service("alpha").stats
        assert stats["cache_misses"] == 1  # exactly one search ran

    def test_coalesced_counts_are_exact(self, toy_model):
        registry = _registry()
        alpha = registry.service("alpha").request(toy_model, 32, options=FAST)
        beta = registry.service("beta").request(toy_model, 32, options=FAST)

        async def scenario(gateway):
            return await asyncio.gather(
                gateway.plan(alpha), gateway.plan(alpha), gateway.plan(alpha),
                gateway.plan(beta), gateway.plan(beta))

        async def main():
            async with PlanGateway(registry) as gateway:
                answers = await scenario(gateway)
                return answers, gateway.stats

        answers, stats = run(main())
        # One leader per unique (cluster, fingerprint); everyone else
        # coalesced.  Followers share the leader's PipetteResult.
        assert stats.submitted == 2
        assert stats.coalesced == 3
        assert stats.rejected == 0
        assert stats.answered == 2
        by_cluster = {}
        for answer in answers:
            by_cluster.setdefault(answer.cluster_name, []).append(answer)
        assert len(by_cluster["alpha"]) == 3
        assert len(by_cluster["beta"]) == 2
        for group in by_cluster.values():
            assert len({id(a.result) for a in group}) == 1

    def test_sequential_repeats_hit_cache_not_coalesce(self, toy_model):
        registry = _registry()
        request = registry.service("alpha").request(toy_model, 32,
                                                    options=FAST)

        async def main():
            async with PlanGateway(registry) as gateway:
                first = await gateway.plan(request)
                second = await gateway.plan(request)
                return first, second

        first, second = run(main())
        assert first.status == "miss"
        assert second.status == "hit"
        assert second.result is first.result


class TestConcurrencyIdentity:
    def test_async_clients_match_serial_drains_byte_for_byte(self,
                                                             toy_model):
        registry = _registry()
        requests = []
        for name in ("alpha", "beta"):
            service = registry.service(name)
            for batch in (16, 32, 16, 64, 32):  # overlapping fingerprints
                requests.append((name, service.request(toy_model, batch,
                                                       options=FAST)))

        async def main():
            async with PlanGateway(registry) as gateway:
                return await asyncio.gather(
                    *(gateway.plan(request, cluster=name)
                      for name, request in requests))

        answers = run(main())
        # Serial reference: a fresh single-caller service per cluster,
        # answering the same requests in submission order.
        references = {}
        for name in ("alpha", "beta"):
            serial = _fresh_service(registry, name)
            for req_name, request in requests:
                if req_name == name:
                    response = serial.plan(request)
                    references[(name, response.fingerprint)] = \
                        _payload_bytes(response.result)
        assert len(answers) == len(requests)
        for (name, request), answer in zip(requests, answers):
            assert answer.best is not None
            expected = references[(name, request.fingerprint())]
            assert _payload_bytes(answer.result) == expected

    def test_unique_fingerprints_searched_exactly_once(self, toy_model):
        registry = _registry()
        service = registry.service("alpha")
        requests = [service.request(toy_model, batch, options=FAST)
                    for batch in (16, 32, 16, 16, 32, 64)]

        async def main():
            async with PlanGateway(registry) as gateway:
                answers = await asyncio.gather(
                    *(gateway.plan(request) for request in requests))
                return answers, gateway.stats

        answers, stats = run(main())
        unique = {request.fingerprint() for request in requests}
        # Exactly one miss per unique fingerprint: the gateway's
        # coalescing is the one in-flight dedup.
        assert service.stats["cache_misses"] == len(unique)
        misses = [a for a in answers if a.status == "miss"]
        assert len(misses) == len(unique)
        assert stats.submitted + stats.coalesced == len(requests)


class TestBackpressure:
    def _gated_registry(self, monkeypatch, toy_model):
        """A registry whose alpha searches block until released."""
        registry = _registry()
        service = registry.service("alpha")
        started = threading.Event()
        release = threading.Event()
        real_search = service._search

        def gated_search(request):
            started.set()
            assert release.wait(timeout=10), "test forgot to release"
            return real_search(request)

        monkeypatch.setattr(service, "_search", gated_search)
        return registry, service, started, release

    def test_reject_policy_sheds_over_limit_clients(self, monkeypatch,
                                                    toy_model):
        registry, service, started, release = \
            self._gated_registry(monkeypatch, toy_model)
        first = service.request(toy_model, 16, options=FAST)
        second = service.request(toy_model, 32, options=FAST)

        async def main():
            async with PlanGateway(registry, max_queue_depth=1,
                                   overflow="reject") as gateway:
                leader = asyncio.ensure_future(gateway.plan(first))
                await _wait_for(started.is_set)
                with pytest.raises(GatewayOverloadedError,
                                   match="in flight"):
                    await gateway.plan(second)
                rejected = gateway.stats.rejected
                release.set()
                answer = await leader
                return answer, rejected

        answer, rejected = run(main())
        assert answer.status == "miss"
        assert rejected == 1

    def test_coalescing_bypasses_the_admission_bound(self, monkeypatch,
                                                     toy_model):
        # A full lane must still coalesce identical requests — they
        # consume no new slot and no new search.
        registry, service, started, release = \
            self._gated_registry(monkeypatch, toy_model)
        request = service.request(toy_model, 16, options=FAST)

        async def main():
            async with PlanGateway(registry, max_queue_depth=1,
                                   overflow="reject") as gateway:
                leader = asyncio.ensure_future(gateway.plan(request))
                await _wait_for(started.is_set)
                follower = asyncio.ensure_future(gateway.plan(request))
                # The join is observable: wait for it, don't guess a
                # sleep long enough for the scheduler to get there.
                await _wait_for(
                    lambda: gateway.stats.read("coalesced") == 1)
                release.set()
                return await asyncio.gather(leader, follower)

        leader, follower = run(main())
        assert leader.status == "miss"
        assert follower.status == "coalesced"
        assert follower.result is leader.result

    def test_wait_policy_parks_then_answers(self, monkeypatch, toy_model):
        registry, service, started, release = \
            self._gated_registry(monkeypatch, toy_model)
        first = service.request(toy_model, 16, options=FAST)
        second = service.request(toy_model, 32, options=FAST)

        async def main():
            async with PlanGateway(registry, max_queue_depth=1,
                                   overflow="wait") as gateway:
                leader = asyncio.ensure_future(gateway.plan(first))
                await _wait_for(started.is_set)
                waiter = asyncio.ensure_future(gateway.plan(second))
                await asyncio.sleep(0.02)
                assert not waiter.done()  # parked on the lane slot
                release.set()
                return await asyncio.gather(leader, waiter)

        leader, waiter = run(main())
        assert leader.status == "miss"
        assert waiter.status == "miss"
        assert waiter.best is not None


def _span_names(node) -> list:
    """Every span name in a trace tree, depth first."""
    names = [node["name"]]
    for child in node.get("children", ()):
        names.extend(_span_names(child))
    return names


class TestHitsOnTheLoop:
    """A cache hit is answered on the event loop, never through a lane."""

    def test_hit_counts_once_and_forms_no_batch(self, toy_model):
        registry = _registry()
        metrics = MetricsRegistry()
        registry.attach_metrics(metrics)
        service = registry.service("alpha")
        request = service.request(toy_model, 32, options=FAST)

        async def main():
            async with PlanGateway(registry, metrics=metrics) as gateway:
                miss = await gateway.plan(request)
                before = gateway.stats.snapshot()
                hit = await gateway.plan(
                    service.request(toy_model, 32, options=FAST))
                return miss, hit, before, gateway.stats.snapshot()

        miss, hit, before, after = run(main())
        assert (miss.status, hit.status) == ("miss", "hit")
        assert hit.result is miss.result
        assert {key: after[key] - before[key] for key in after} == {
            "submitted": 1, "coalesced": 0, "rejected": 0, "batches": 0,
            "answered": 1}
        samples = parse_prometheus(metrics.render())
        assert metric_value(samples, "pipette_requests_total",
                            cluster="alpha", outcome="hit") == 1
        assert metric_value(samples, "pipette_requests_total",
                            cluster="alpha", outcome="miss") == 1
        for outcome in ("hit", "miss"):
            assert metric_value(samples, "pipette_plan_latency_seconds_count",
                                cluster="alpha", outcome=outcome) == 1
        assert metric_value(samples, "pipette_gateway_batches_total") == 1
        stats = service.stats
        assert (stats["cache_hits"], stats["cache_misses"],
                stats["requests_submitted"]) == (1, 1, 2)

    def test_hit_trace_has_one_lookup_and_no_queue_wait(self, toy_model):
        registry = _registry()
        service = registry.service("alpha")
        request = service.request(toy_model, 32, options=FAST)

        async def main():
            async with PlanGateway(registry) as gateway:
                return [await gateway.plan(request, cluster="alpha")
                        for _ in range(2)]

        TRACER.enable()
        try:
            miss, hit = run(main())
            trees = {answer.status: TRACER.trace(answer.trace_id)
                     for answer in (miss, hit)}
        finally:
            TRACER.disable()
            TRACER.reset()
        hit_names = _span_names(trees["hit"]["root"])
        assert hit_names == ["gateway.plan", "plan.cache_lookup"]
        lookup = trees["hit"]["root"]["children"][0]
        assert lookup["attributes"]["outcome"] == "hit"
        # A lane-served miss keeps its tree: one wait, one lookup.
        miss_names = _span_names(trees["miss"]["root"])
        assert miss_names[:4] == ["gateway.plan", "queue.wait",
                                  "plan.cache_lookup", "plan.search"]
        assert miss_names.count("plan.cache_lookup") == 1
        assert miss_names.count("queue.wait") == 1

    def test_plan_nowait_answers_a_hit_now_and_returns_a_miss(self,
                                                             toy_model):
        registry = _registry()
        service = registry.service("alpha")
        request = service.request(toy_model, 32, options=FAST)

        async def main():
            async with PlanGateway(registry) as gateway:
                pending = gateway.plan_nowait(request, cluster="alpha")
                queued = not isinstance(pending, GatewayResponse)
                miss = await pending
                hit = gateway.plan_nowait(request, cluster="alpha")
                return queued, miss, hit, gateway.stats.snapshot()

        TRACER.enable()
        try:
            queued, miss, hit, stats = run(main())
            trees = [TRACER.trace(answer.trace_id) for answer in (miss, hit)]
        finally:
            TRACER.disable()
            TRACER.reset()
        assert queued
        assert (miss.status, hit.status) == ("miss", "hit")
        assert hit.result is miss.result
        assert (stats["submitted"], stats["answered"], stats["batches"]) == \
            (2, 2, 1)
        # The same trees as through plan(): the miss's gateway span
        # stays open across its wait and ends with its answer.
        assert _span_names(trees[1]["root"]) == ["gateway.plan",
                                                 "plan.cache_lookup"]
        miss_names = _span_names(trees[0]["root"])
        assert miss_names[:4] == ["gateway.plan", "queue.wait",
                                  "plan.cache_lookup", "plan.search"]
        assert trees[0]["root"]["duration_ms"] >= \
            trees[0]["root"]["children"][0]["duration_ms"]

    def test_miss_and_stale_entry_count_once(self, toy_model):
        registry = _registry()
        service = registry.service("alpha")
        fresh = service.request(toy_model, 32, options=FAST)
        stale = service.request(toy_model, 16, options=FAST)

        async def main():
            async with PlanGateway(registry) as gateway:
                answer = await gateway.plan(fresh)
                service.cache.put(stale.fingerprint(), "another-epoch",
                                  answer.result)
                return answer, await gateway.plan(stale)

        fresh_answer, stale_answer = run(main())
        assert (fresh_answer.status, stale_answer.status) == ("miss", "miss")
        cache = service.cache.stats_snapshot()
        assert (cache.hits, cache.misses, cache.stale_drops) == (0, 2, 1)

    def test_full_lane_answers_hits_and_rejects_misses(self, toy_model):
        registry = _registry()
        service = registry.service("alpha")
        cached = service.request(toy_model, 32, options=FAST)
        queued = service.request(toy_model, 16, options=FAST)
        refused = service.request(toy_model, 64, options=FAST)

        async def main():
            async with PlanGateway(registry, max_queue_depth=1,
                                   overflow="reject") as gateway:
                first = await gateway.plan(cached)
                # Holding the fence keeps the admitted miss (and its
                # slot) out of a drain while the lock stays free.
                lane = gateway._lane("alpha")
                async with lane.fence:
                    parked = asyncio.ensure_future(gateway.plan(queued))
                    await _wait_for(lane.slots.locked)
                    hit = await gateway.plan(cached)
                    with pytest.raises(GatewayOverloadedError):
                        await gateway.plan(refused)
                return first, hit, await parked, gateway.stats.snapshot()

        first, hit, parked, stats = run(main())
        assert hit.status == "hit"
        assert hit.result is first.result
        assert parked.status == "miss"
        assert (stats["rejected"], stats["batches"]) == (1, 2)


class TestBusyService:
    """The event loop never waits on a service lock held by a search."""

    def test_hits_answer_around_a_running_search(self, monkeypatch,
                                                 toy_model):
        registry = _registry()
        alpha, beta = registry.service("alpha"), registry.service("beta")
        alpha_cached = alpha.request(toy_model, 32, options=FAST)
        beta_cached = beta.request(toy_model, 32, options=FAST)
        started, release = threading.Event(), threading.Event()
        real_search = alpha._search

        def gated_search(request):
            started.set()
            assert release.wait(timeout=10), "test forgot to release"
            return real_search(request)

        async def main():
            async with PlanGateway(registry) as gateway:
                for request in (alpha_cached, beta_cached):
                    assert (await gateway.plan(request)).status == "miss"
                monkeypatch.setattr(alpha, "_search", gated_search)
                search = asyncio.ensure_future(gateway.plan(
                    alpha.request(toy_model, 16, options=FAST)))
                await _wait_for(started.is_set)
                # Beta's hit answers while alpha's drain thread holds
                # alpha's lock mid-search.
                beta_hit = await gateway.plan(beta_cached)
                assert not search.done()
                # Alpha's hit finds the lock busy and takes the lane; the
                # loop keeps running meanwhile.
                alpha_hit = asyncio.ensure_future(gateway.plan(alpha_cached))
                await asyncio.sleep(0.05)
                assert not alpha_hit.done()
                batches = gateway.stats.read("batches")
                release.set()
                return (beta_hit, await alpha_hit, await search, batches,
                        gateway.stats.read("batches"))

        beta_hit, alpha_hit, search, before, after = run(main())
        assert beta_hit.status == "hit"
        assert alpha_hit.status == "hit"
        assert search.status == "miss"
        assert after == before + 1  # the alpha hit rode one drain

    def test_loop_hits_and_drained_misses_lose_no_counts(self, toy_model):
        """Hits on the loop race drain threads searching new keys."""
        registry = _registry()
        batches = (8, 16, 32, 64)
        waves = [[(name, registry.service(name).request(
                      toy_model, batch, options=FAST))
                  for name in ("alpha", "beta")
                  for batch in batches[:wave + 1] for _ in range(3)]
                 for wave in range(len(batches))]

        async def main():
            async with PlanGateway(registry) as gateway:
                answers = []
                for wave in waves:
                    answers += await asyncio.wait_for(asyncio.gather(
                        *(gateway.plan(request, cluster=name)
                          for name, request in wave)), timeout=60)
                return answers, gateway.stats.snapshot()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            answers, stats = run(main())
        finally:
            sys.setswitchinterval(interval)
        asked = [pair for wave in waves for pair in wave]
        assert stats["submitted"] + stats["coalesced"] == len(asked)
        assert stats["answered"] == stats["submitted"]
        results = {}
        for (name, request), answer in zip(asked, answers):
            results.setdefault((name, request.fingerprint()),
                               set()).add(id(answer.result))
        assert all(len(ids) == 1 for ids in results.values())
        for name in ("alpha", "beta"):
            service = registry.service(name).stats
            assert service["cache_misses"] == len(batches)
            assert service["cache_hits"] + service["cache_misses"] == \
                service["requests_submitted"]


class TestOneRequestPerDrain:
    """A lane answers each caller as soon as its own search returns."""

    def test_first_caller_answered_while_next_search_runs(self, monkeypatch,
                                                          toy_model):
        registry = _registry()
        service = registry.service("alpha")
        first = service.request(toy_model, 16, options=FAST)
        second = service.request(toy_model, 32, options=FAST)
        second_started, release = threading.Event(), threading.Event()
        real_search = service._search

        def gated_search(request):
            if request is second:
                second_started.set()
                assert release.wait(timeout=10), "test forgot to release"
            return real_search(request)

        monkeypatch.setattr(service, "_search", gated_search)

        async def main():
            async with PlanGateway(registry) as gateway:
                # Both distinct misses are queued on the lane before
                # its drain task takes its first step.
                leader = asyncio.ensure_future(gateway.plan(first))
                blocked = asyncio.ensure_future(gateway.plan(second))
                try:
                    await _wait_for(second_started.is_set)
                    answer = await asyncio.wait_for(asyncio.shield(leader),
                                                    timeout=5)
                    still_blocked = not blocked.done()
                finally:
                    release.set()
                return answer, still_blocked, await blocked

        answer, still_blocked, later = run(main())
        assert answer.status == "miss" and answer.best is not None
        assert still_blocked
        assert later.status == "miss"

    def test_lanes_stay_independent_past_eight_busy_clusters(self,
                                                             toy_model):
        # Nine clusters with one spec and one matrix: every search
        # waits until all nine are running at once, which only holds
        # if no lane waits for a thread another lane holds.
        cluster = _cluster("alpha")
        bandwidth = _bandwidth(cluster, 1)
        reference = PlanningService(cluster, bandwidth)
        result = reference.plan(reference.request(toy_model, 32,
                                                  options=FAST)).result
        names = [f"lane-{i}" for i in range(9)]
        barrier = threading.Barrier(len(names), timeout=10)

        def stub_search(request):
            barrier.wait()
            return result

        registry = ClusterRegistry()
        for name in names:
            registry.add_cluster(name, cluster, bandwidth)._search = \
                stub_search

        async def main():
            async with PlanGateway(registry) as gateway:
                return await asyncio.gather(*(
                    gateway.plan(registry.service(name).request(
                        toy_model, 32, options=FAST), cluster=name)
                    for name in names))

        answers = run(main())
        assert [a.cluster_name for a in answers] == names
        assert all(a.status == "miss" for a in answers), \
            [(a.status, a.response.error) for a in answers]
        assert all(a.result is result for a in answers)


class TestElasticFencing:
    def test_event_waits_for_inflight_drain(self, monkeypatch, toy_model,
                                            tiny_network):
        registry = _registry()
        service = registry.service("alpha")
        started = threading.Event()
        release = threading.Event()
        real_search = service._search

        def gated_search(request):
            started.set()
            assert release.wait(timeout=10)
            return real_search(request)

        monkeypatch.setattr(service, "_search", gated_search)
        request = service.request(toy_model, 32, options=FAST)
        degraded = service.bandwidth.matrix.copy()
        degraded[np.isfinite(degraded)] *= 0.5
        np.fill_diagonal(degraded, np.inf)
        moved = BandwidthMatrix(matrix=degraded,
                                alpha=service.bandwidth.alpha)

        async def main():
            async with PlanGateway(registry) as gateway:
                leader = asyncio.ensure_future(gateway.plan(request))
                await _wait_for(started.is_set)
                event = asyncio.ensure_future(
                    gateway.update_bandwidth("alpha", moved))
                await asyncio.sleep(0.05)
                # The fence holds the event out of the running drain.
                assert not event.done()
                release.set()
                answer = await leader
                retired = await event
                return answer, retired

        answer, retired = run(main())
        # The in-flight client was answered by its own (pre-event)
        # epoch's search, and that plan was then retired by the event.
        assert answer.status == "miss"
        assert retired == 1

    def test_post_event_requests_never_see_pre_event_plans(self, toy_model):
        registry = _registry()
        service = registry.service("alpha")
        request = service.request(toy_model, 32, options=FAST)
        degraded = service.bandwidth.matrix.copy()
        degraded[np.isfinite(degraded)] *= 0.5
        np.fill_diagonal(degraded, np.inf)
        moved = BandwidthMatrix(matrix=degraded,
                                alpha=service.bandwidth.alpha)

        async def main():
            async with PlanGateway(registry) as gateway:
                before = await gateway.plan(request)
                retired = await gateway.update_bandwidth("alpha", moved)
                after = await asyncio.gather(gateway.plan(request),
                                             gateway.plan(request))
                return before, retired, after

        before, retired, after = run(main())
        assert retired == 1
        # The post-event epoch never hands out the pre-event plan: the
        # request re-searched (miss + coalesced follower, no hit), and
        # its answer matches a fresh service built on the new matrix.
        assert sorted(a.status for a in after) == ["coalesced", "miss"]
        assert all(a.result is not before.result for a in after)
        fresh = PlanningService(service.cluster, moved)
        reference = fresh.plan(fresh.request(toy_model, 32, options=FAST))
        assert _payload_bytes(after[0].result) == \
            _payload_bytes(reference.result)

    def test_node_failure_errors_stale_tickets_and_shrinks(self, toy_model):
        registry = _registry()
        service = registry.service("alpha")
        stale = service.request(toy_model, 32, options=FAST)

        async def main():
            async with PlanGateway(registry) as gateway:
                warmup = await gateway.plan(stale)
                retired = await gateway.fail_nodes("alpha", 1)
                # The pre-failure request now targets a cluster the
                # service no longer plans for: submit-time error.
                with pytest.raises(ValueError, match="re-submit|match"):
                    await gateway.plan(stale, cluster="alpha")
                survivor = registry.service("alpha")
                fresh = await gateway.plan(
                    survivor.request(toy_model, 32, options=FAST))
                return warmup, retired, fresh

        warmup, retired, fresh = run(main())
        assert warmup.status == "miss"
        assert retired == 1
        assert fresh.status == "miss"
        assert fresh.best.config.n_gpus == \
            registry.service("alpha").cluster.n_gpus

    def test_sibling_lane_unaffected_by_event(self, toy_model):
        registry = _registry()
        beta_request = registry.service("beta").request(toy_model, 32,
                                                        options=FAST)

        async def main():
            async with PlanGateway(registry) as gateway:
                first = await gateway.plan(beta_request)
                await gateway.fail_nodes("alpha", 0)
                second = await gateway.plan(beta_request)
                return first, second

        first, second = run(main())
        assert first.status == "miss"
        assert second.status == "hit"
        assert second.result is first.result


class TestErrorPaths:
    def test_unknown_cluster_raises(self, toy_model):
        registry = _registry()
        request = registry.service("alpha").request(toy_model, 16,
                                                    options=FAST)

        async def main():
            async with PlanGateway(registry) as gateway:
                with pytest.raises(ValueError, match="unknown cluster"):
                    await gateway.plan(request, cluster="nope")

        run(main())

    def test_search_failure_is_an_error_response(self, monkeypatch,
                                                 toy_model):
        registry = _registry()
        service = registry.service("alpha")

        def exploding_search(request):
            raise RuntimeError("estimator exploded")

        monkeypatch.setattr(service, "_search", exploding_search)
        request = service.request(toy_model, 16, options=FAST)

        async def main():
            async with PlanGateway(registry) as gateway:
                answers = await asyncio.gather(gateway.plan(request),
                                               gateway.plan(request))
                return answers

        answers = run(main())
        statuses = sorted(a.status for a in answers)
        assert statuses == ["coalesced", "error"]
        assert all(a.result is None for a in answers)
        assert any("estimator exploded" in (a.response.error or "")
                   for a in answers)

    def test_closed_gateway_refuses_work(self, toy_model):
        registry = _registry()
        request = registry.service("alpha").request(toy_model, 16,
                                                    options=FAST)

        async def main():
            gateway = PlanGateway(registry)
            async with gateway:
                await gateway.plan(request)
            with pytest.raises(RuntimeError, match="closed"):
                await gateway.plan(request)

        run(main())

    def test_invalid_configuration_rejected(self):
        registry = _registry()
        with pytest.raises(ValueError, match="overflow"):
            PlanGateway(registry, overflow="explode")
        with pytest.raises(ValueError, match="max_queue_depth"):
            PlanGateway(registry, max_queue_depth=0)


class TestResilience:
    def test_lane_survives_unexpected_drain_failure(self, monkeypatch,
                                                    toy_model):
        # Regression: an exception escaping a drain (e.g. a durable
        # store whose disk filled) used to kill the lane's drain task —
        # every later request on that cluster then hung forever.  The
        # failing request gets the error; the lane lives.
        registry = _registry()
        service = registry.service("alpha")
        real_plan = service.plan
        calls = {"n": 0}

        def flaky_plan(request, trace=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("disk full")
            return real_plan(request, trace=trace)

        monkeypatch.setattr(service, "plan", flaky_plan)
        first = service.request(toy_model, 16, options=FAST)
        second = service.request(toy_model, 32, options=FAST)

        async def main():
            async with PlanGateway(registry) as gateway:
                with pytest.raises(OSError, match="disk full"):
                    await gateway.plan(first)
                return await gateway.plan(second)

        answer = run(main())
        assert answer.best is not None
        assert calls["n"] >= 2

    def test_cancelled_waiting_leader_does_not_orphan_followers(
            self, monkeypatch, toy_model):
        # Regression: cancelling a leader parked on the lane's
        # admission slot abandoned its coalesced followers on a future
        # nobody would resolve; a follower must retry as the new
        # leader instead.
        registry = _registry()
        service = registry.service("alpha")
        started = threading.Event()
        release = threading.Event()
        real_search = service._search

        def gated_search(request):
            started.set()
            assert release.wait(timeout=10)
            return real_search(request)

        monkeypatch.setattr(service, "_search", gated_search)
        blocker = service.request(toy_model, 16, options=FAST)
        shared = service.request(toy_model, 32, options=FAST)

        async def main():
            async with PlanGateway(registry, max_queue_depth=1,
                                   overflow="wait") as gateway:
                blocking = asyncio.ensure_future(gateway.plan(blocker))
                await _wait_for(started.is_set)
                leader = asyncio.ensure_future(gateway.plan(shared))
                # In-flight registration precedes the slot park, so
                # "leader parked" is observable — no guessed sleeps.
                await _wait_for(lambda: len(gateway._inflight) == 2)
                follower = asyncio.ensure_future(gateway.plan(shared))
                await _wait_for(
                    lambda: gateway.stats.read("coalesced") == 1)
                leader.cancel()
                # The follower un-coalesces and re-leads; wait for the
                # handoff rather than hoping 20 ms covered it.
                await _wait_for(
                    lambda: gateway.stats.read("coalesced") == 0
                    and len(gateway._inflight) == 2)
                release.set()
                blocked_answer = await blocking
                follower_answer = await follower
                with pytest.raises(asyncio.CancelledError):
                    await leader
                return blocked_answer, follower_answer

        blocked_answer, follower_answer = run(main())
        assert blocked_answer.status == "miss"
        assert follower_answer.best is not None
        assert follower_answer.status == "miss"  # re-led, not orphaned


class TestFairQueue:
    def _drain(self, queue):
        items = []
        while True:
            try:
                items.append(queue.get_nowait())
            except asyncio.QueueEmpty:
                return items

    def test_round_robin_interleaves_clients(self):
        from repro.service.gateway import _FairQueue

        queue = _FairQueue()
        for i in range(3):
            queue.put_nowait(f"a{i}", "a")
        for i in range(3):
            queue.put_nowait(f"b{i}", "b")
        assert self._drain(queue) == ["a0", "b0", "a1", "b1", "a2", "b2"]

    def test_weights_give_proportional_share(self):
        from repro.service.gateway import _FairQueue

        queue = _FairQueue(weights={"vip": 2})
        for i in range(4):
            queue.put_nowait(f"v{i}", "vip")
            queue.put_nowait(f"p{i}", "pleb")
        assert self._drain(queue) == [
            "v0", "v1", "p0", "v2", "v3", "p1", "p2", "p3"]

    def test_shared_client_id_keeps_arrival_order(self):
        # Strict FIFO is this queue with one client id for every item.
        from repro.service.gateway import _FairQueue

        queue = _FairQueue()
        for item in ("a0", "a1", "b0"):
            queue.put_nowait(item, "")
        assert queue.get_nowait() == "a0"
        queue.put_nowait("a2", "")
        assert self._drain(queue) == ["a1", "b0", "a2"]

    def test_idle_client_leaves_rotation_and_rejoins_at_back(self):
        from repro.service.gateway import _FairQueue

        queue = _FairQueue()
        queue.put_nowait("a0", "a")
        queue.put_nowait("b0", "b")
        assert queue.get_nowait() == "a0"  # "a" is now idle
        queue.put_nowait("c0", "c")
        queue.put_nowait("a1", "a")        # rejoins *behind* b and c
        assert self._drain(queue) == ["b0", "c0", "a1"]

    def test_async_get_waits_for_put(self):
        from repro.service.gateway import _FairQueue

        async def main():
            queue = _FairQueue()
            getter = asyncio.ensure_future(queue.get())
            await asyncio.sleep(0.01)
            assert not getter.done()
            queue.put_nowait("x", "a")
            return await asyncio.wait_for(getter, timeout=1)

        assert run(main()) == "x"


class TestFairness:
    def _stubbed_registry(self, toy_model, search_s=0.03):
        """One cluster whose searches cost a fixed, known duration."""
        cluster = _cluster("alpha")
        registry = ClusterRegistry()
        service = registry.add_cluster("alpha", cluster,
                                       _bandwidth(cluster, 1))
        result = service.plan(service.request(toy_model, 8,
                                              options=FAST)).result
        import time as _time

        def stub_search(request):
            _time.sleep(search_s)
            return result

        service._search = stub_search
        return registry, service

    def test_quiet_client_not_starved_by_chatty_one(self, toy_model):
        # A chatty client floods the lane with 12 distinct requests;
        # a quiet client then asks one question.  Under weighted
        # round-robin the quiet request is drained within the next
        # couple of searches instead of waiting for the whole hostile
        # backlog — so strictly fewer answers precede it than when it
        # shares the chatty client's id (one FIFO sub-queue).
        def scenario(quiet_id):
            registry, service = self._stubbed_registry(toy_model)
            answered_before = []

            async def main():
                async with PlanGateway(registry) as gateway:
                    chatty = [
                        asyncio.ensure_future(gateway.plan(
                            service.request(toy_model, 16 + 8 * i,
                                            options=FAST),
                            client_id="chatty"))
                        for i in range(12)]
                    # The whole flood must be enqueued before the quiet
                    # client asks, or the fairness comparison races the
                    # chatty submissions themselves.
                    await _wait_for(
                        lambda: gateway.stats.read("submitted") == 12)
                    quiet = await gateway.plan(
                        service.request(toy_model, 2048, options=FAST),
                        client_id=quiet_id)
                    answered_before.append(gateway.stats.answered)
                    await asyncio.gather(*chatty)
                    assert quiet.best is not None
                    return gateway.stats

            stats = run(main())
            assert stats.answered == 13  # everyone got a real answer
            return answered_before[0]

        fair_position = scenario("quiet")
        fifo_position = scenario("chatty")
        # FIFO answers (nearly) the whole flood first; fair answers the
        # quiet client within a couple of searches of joining.
        assert fifo_position >= 12
        assert fair_position <= 6
        assert fair_position < fifo_position

    def test_fair_and_fifo_answer_identically(self, toy_model):
        # Fairness reorders *when* answers arrive, never *what* they
        # are: distinct client ids and one shared id (strict FIFO) must
        # produce byte-identical plans.
        def collect(client_ids):
            registry = _registry()
            requests = [registry.service("alpha").request(
                toy_model, batch, options=FAST) for batch in (16, 32, 64)]

            async def main():
                async with PlanGateway(registry) as gateway:
                    return await asyncio.gather(*(
                        gateway.plan(request, client_id=client_id)
                        for client_id, request in zip(client_ids, requests)))

            return [_payload_bytes(a.result) for a in run(main())]

        assert collect(["c0", "c1", "c2"]) == collect(["c", "c", "c"])

    def test_invalid_fairness_configuration_rejected(self):
        registry = _registry()
        with pytest.raises(ValueError, match="client weight"):
            PlanGateway(registry, client_weights={"a": 0})


class TestForService:
    def test_single_service_wrapper(self, tiny_cluster, tiny_network,
                                    toy_model):
        # A single service is served by registering it under one name.
        service = PlanningService(tiny_cluster, tiny_network.bandwidth)
        registry = ClusterRegistry()
        registry.register("default", service)
        request = service.request(toy_model, 32, options=FAST)

        async def main():
            async with PlanGateway(registry) as gateway:
                answers = await asyncio.gather(gateway.plan(request),
                                               gateway.plan(request))
                return answers

        answers = run(main())
        assert sorted(a.status for a in answers) == ["coalesced", "miss"]
        assert all(a.cluster_name == "default" for a in answers)
        serial = PlanningService(tiny_cluster, tiny_network.bandwidth)
        reference = serial.plan(serial.request(toy_model, 32, options=FAST))
        assert _payload_bytes(answers[0].result) == \
            _payload_bytes(reference.result)
