"""The planning service: the one answering routine, cache, events.

Queueing and in-flight dedup live in the gateway; the tests of those
behaviours here drive one service through a gateway over a
one-cluster registry.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.cluster.fabric import BandwidthMatrix
from repro.core import PipetteOptions, SAOptions
from repro.core.memory_dataset import build_memory_dataset
from repro.core.memory_estimator import MemoryEstimator
from repro.model import get_model
from repro.service import (
    CandidateExecutor,
    ClusterEvent,
    ClusterRegistry,
    PlanGateway,
    PlanningService,
    PlanRequest,
)
from repro.units import GIB


FAST = PipetteOptions(use_worker_dedication=False)
SA_FAST = PipetteOptions(sa=SAOptions(max_iterations=100), sa_top_k=1)


@pytest.fixture
def service(tiny_cluster, tiny_network) -> PlanningService:
    return PlanningService(tiny_cluster, tiny_network.bandwidth)


def _concurrently(service, requests):
    """Answer ``requests`` through a gateway, all enqueued at once."""
    async def main():
        registry = ClusterRegistry()
        registry.register("default", service)
        async with PlanGateway(registry) as gateway:
            return await asyncio.gather(
                *(gateway.plan(request) for request in requests))

    return asyncio.run(main())


class TestRequestLifecycle:
    def test_miss_then_hit(self, service, toy_model):
        request = service.request(toy_model, 32, options=FAST)
        first = service.plan(request)
        second = service.plan(request)
        assert first.status == "miss"
        assert second.status == "hit"
        assert second.result is first.result
        assert second.elapsed_s <= first.elapsed_s

    def test_inflight_dedup(self, service, toy_model):
        request = service.request(toy_model, 32, options=FAST)
        responses = _concurrently(service, [
            request, request, service.request(toy_model, 16, options=FAST)])
        assert [r.status for r in responses] == ["miss", "coalesced", "miss"]
        assert responses[0].result is responses[1].result
        assert service.stats["cache_misses"] == 2
        assert service.stats["cache_entries"] == 2

    def test_drain_isolates_failing_ticket(self, service, toy_model,
                                           monkeypatch):
        bad = service.request(toy_model, 16, options=FAST)
        good = service.request(toy_model, 32, options=FAST)
        real_search = service._search

        def failing_search(request):
            if request.global_batch == 16:
                raise RuntimeError("estimator exploded")
            return real_search(request)

        monkeypatch.setattr(service, "_search", failing_search)
        responses = _concurrently(service, [bad, good])
        assert [r.status for r in responses] == ["error", "miss"]
        assert responses[0].result is None and responses[0].best is None
        assert "estimator exploded" in responses[0].response.error
        assert responses[1].best is not None

    def test_responses_in_submission_order(self, service, toy_model,
                                           monkeypatch):
        # The lane answers its requests in queue order, and each
        # caller gets the response to its own request.
        searched = []
        real_search = service._search

        def recording_search(request):
            searched.append(request.global_batch)
            return real_search(request)

        monkeypatch.setattr(service, "_search", recording_search)
        requests = [service.request(toy_model, batch, options=FAST)
                    for batch in (16, 32, 64)]
        responses = _concurrently(service, requests)
        assert searched == [16, 32, 64]
        assert [r.response.request for r in responses] == requests
        assert [r.response.fingerprint for r in responses] \
            == [request.fingerprint() for request in requests]

    def test_search_parameters_respected(self, service, toy_model):
        response = service.plan(service.request(
            toy_model, 32, micro_batches=(2,), options=FAST))
        assert response.best.config.micro_batch == 2

    def test_foreign_cluster_rejected(self, service, toy_model,
                                      tiny_cluster):
        foreign = tiny_cluster.scaled_to(2)
        with pytest.raises(ValueError):
            service.plan(PlanRequest(cluster=foreign, model=toy_model,
                                     global_batch=16))

    def test_same_size_different_cluster_rejected(self, service, toy_model,
                                                  tiny_cluster):
        # Equal GPU count is not enough: the service searches against
        # its own profiled matrix, so the specs must match exactly.
        from dataclasses import replace
        lookalike = replace(tiny_cluster, name="impostor")
        assert lookalike.n_gpus == service.cluster.n_gpus
        with pytest.raises(ValueError):
            service.plan(PlanRequest(cluster=lookalike, model=toy_model,
                                     global_batch=16))

    def test_mismatched_matrix_rejected(self, tiny_cluster, tiny_network):
        with pytest.raises(ValueError):
            PlanningService(tiny_cluster.scaled_to(2),
                            tiny_network.bandwidth)

    def test_profiles_cached_per_model(self, service, toy_model):
        service.plan(service.request(toy_model, 16, options=FAST))
        service.plan(service.request(toy_model, 32, options=FAST))
        assert service.stats["profiled_models"] == 1


class TestMemoryLimit:
    """A memory limit needs an estimator to check it against."""

    def test_request_refuses_limit_without_estimator(self, service,
                                                     toy_model):
        with pytest.raises(ValueError, match="memory estimator"):
            service.request(toy_model, 32, memory_limit_bytes=GIB)

    def test_template_warm_up_refuses_a_non_finite_limit(self, service,
                                                          toy_model):
        for bad in (float("inf"), float("nan"), 0.0):
            with pytest.raises(ValueError, match="finite and positive"):
                service.warm_templates(toy_model, 32, memory_limit_bytes=bad)

    def test_plan_refuses_before_counting_or_searching(self, service,
                                                       toy_model,
                                                       monkeypatch):
        limited = PlanRequest(cluster=service.cluster, model=toy_model,
                              global_batch=32, memory_limit_bytes=GIB,
                              options=FAST)
        # Even a cached answer under the limited fingerprint (a shared
        # or rehydrated store) is not served.
        plain = service.plan(service.request(toy_model, 32, options=FAST))
        service.cache.put(limited.fingerprint(), service.bandwidth_fp,
                          plain.result)
        before = service.stats
        monkeypatch.setattr(service, "_search", lambda request: pytest.fail(
            "a refused request must not be searched"))
        assert service.lookup(limited) is None
        with pytest.raises(ValueError, match="memory estimator"):
            service.plan(limited)
        assert service.stats == before

    def test_limit_is_checked_with_an_estimator(self, tiny_cluster,
                                                tiny_network, toy_model):
        estimator = MemoryEstimator(hidden_size=16, n_hidden_layers=1,
                                    seed=0)
        estimator.fit(build_memory_dataset(
            tiny_cluster, [toy_model], global_batches=[16, 32],
            node_counts=[1, 2], seed=0), iterations=50)
        service = PlanningService(tiny_cluster, tiny_network.bandwidth,
                                  memory_estimator=estimator)
        response = service.plan(service.request(
            toy_model, 32, memory_limit_bytes=1.0, options=FAST))
        # Every candidate is over the limit: nothing is ranked as fitting.
        assert response.result.rejected_oom > 0
        assert all(not entry.memory_ok for entry in response.result.ranked)


class TestLookup:
    """``lookup``: the one cache read, which never waits on the lock."""

    @staticmethod
    def _counts(service):
        stats = service.stats
        return {key: stats[key] for key in (
            "requests_submitted", "cache_entries", "cache_hits",
            "cache_misses", "cache_stale_drops")}

    def test_hit_counts_exactly_like_plan(self, service, toy_model):
        request = service.request(toy_model, 32, options=FAST)
        first = service.plan(request)
        before = self._counts(service)
        hit = service.lookup(service.request(toy_model, 32, options=FAST))
        assert hit.status == "hit"
        assert hit.result is first.result
        after_lookup = self._counts(service)
        assert service.plan(request).status == "hit"
        after_plan = self._counts(service)
        step = {key: after_lookup[key] - before[key] for key in before}
        assert step == {key: after_plan[key] - after_lookup[key]
                        for key in before}
        assert step == {"requests_submitted": 1, "cache_entries": 0,
                        "cache_hits": 1, "cache_misses": 0,
                        "cache_stale_drops": 0}

    def test_miss_stale_and_foreign_have_no_side_effects(
            self, service, toy_model, tiny_cluster):
        request = service.request(toy_model, 32, options=FAST)
        result = service.plan(request).result
        stale = service.request(toy_model, 16, options=FAST)
        service.cache.put(stale.fingerprint(), "another-epoch", result)
        foreign = PlanRequest(cluster=tiny_cluster.scaled_to(2),
                              model=toy_model, global_batch=32, options=FAST)
        before = self._counts(service)
        for asked in (service.request(toy_model, 64, options=FAST), stale,
                      foreign):
            assert service.lookup(asked) is None
        assert self._counts(service) == before
        assert stale.fingerprint() in service.cache

    def test_busy_lock_returns_none_without_waiting(self, service,
                                                    toy_model):
        request = service.request(toy_model, 32, options=FAST)
        service.plan(request)
        before = self._counts(service)
        held, release = threading.Event(), threading.Event()

        def hold():
            with service._lock:
                held.set()
                release.wait(timeout=10)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(timeout=10)
            assert service.lookup(request) is None
        finally:
            release.set()
            holder.join()
        assert self._counts(service) == before
        assert service.lookup(request).status == "hit"


class TestDrainAccounting:
    def test_failing_fingerprint_searched_once(self, service, toy_model,
                                               monkeypatch):
        # Regression: N identical bad requests re-raised the same
        # search N times instead of sharing the first failure.
        calls = {"n": 0}

        def failing_search(request):
            calls["n"] += 1
            raise RuntimeError("estimator exploded")

        monkeypatch.setattr(service, "_search", failing_search)
        request = service.request(toy_model, 32, options=FAST)
        responses = _concurrently(service, [request] * 3)
        assert [r.status for r in responses] \
            == ["error", "coalesced", "coalesced"]
        assert calls["n"] == 1
        assert all(r.best is None for r in responses)
        assert all("estimator exploded" in r.response.error
                   for r in responses)

    def test_failure_dedup_does_not_mask_other_tickets(self, service,
                                                       toy_model,
                                                       monkeypatch):
        real_search = service._search

        def failing_search(request):
            if request.global_batch == 16:
                raise RuntimeError("boom")
            return real_search(request)

        monkeypatch.setattr(service, "_search", failing_search)
        bad = service.request(toy_model, 16, options=FAST)
        good = service.request(toy_model, 32, options=FAST)
        responses = _concurrently(service, [bad, good, bad, good])
        assert [r.status for r in responses] \
            == ["error", "miss", "coalesced", "coalesced"]
        assert [r.best is not None for r in responses] \
            == [False, True, False, True]


class TestBandwidthEpochs:
    def test_small_noise_keeps_cache(self, service, toy_model, tiny_network):
        service.plan(service.request(toy_model, 32, options=FAST))
        bw = tiny_network.bandwidth
        wiggle = BandwidthMatrix(matrix=bw.matrix * 1.001, alpha=bw.alpha)
        assert service.update_bandwidth(wiggle) == 0
        assert service.plan(service.request(toy_model, 32,
                                            options=FAST)).status == "hit"

    def test_real_drift_invalidates(self, service, toy_model, tiny_network):
        service.plan(service.request(toy_model, 32, options=FAST))
        bw = tiny_network.bandwidth
        degraded = bw.matrix.copy()
        degraded[np.isfinite(degraded)] *= 0.7
        np.fill_diagonal(degraded, np.inf)
        moved = BandwidthMatrix(matrix=degraded, alpha=bw.alpha)
        assert service.update_bandwidth(moved) == 1
        response = service.plan(service.request(toy_model, 32, options=FAST))
        assert response.status == "miss"

    def test_wrong_size_matrix_rejected(self, service, tiny_network):
        with pytest.raises(ValueError):
            service.update_bandwidth(tiny_network.bandwidth.restrict(range(4)))

    def test_cumulative_drift_rolls_epoch(self, service, toy_model,
                                          tiny_network):
        # Two +8% steps are each under the 10% threshold relative to
        # their predecessor, but 16.6% relative to the epoch baseline:
        # the second must invalidate.  (A last-adopted-matrix
        # comparison would ratchet past the threshold unnoticed.)
        service.plan(service.request(toy_model, 32, options=FAST))
        bw = tiny_network.bandwidth
        step1 = BandwidthMatrix(matrix=bw.matrix * 1.08, alpha=bw.alpha)
        step2 = BandwidthMatrix(matrix=bw.matrix * 1.08 ** 2, alpha=bw.alpha)
        assert service.update_bandwidth(step1, drift_threshold=0.10) == 0
        assert service.update_bandwidth(step2, drift_threshold=0.10) == 1
        assert service.plan(service.request(toy_model, 32,
                                            options=FAST)).status == "miss"


class TestServiceReplan:
    def test_node_failure_adopts_survivor_cluster(self, service, toy_model,
                                                  tiny_cluster):
        request = service.request(toy_model, 32, options=SA_FAST)
        report = service.replan(request, ClusterEvent.node_failure(1),
                                run_cold=False)
        assert report.cluster.n_nodes == tiny_cluster.n_nodes - 1
        assert report.warm.config.n_gpus == report.cluster.n_gpus
        assert service.stats["cache_entries"] == 0
        # The service now plans for the survivors, not the dead cluster.
        assert service.cluster == report.cluster
        assert service.bandwidth.n_gpus == report.cluster.n_gpus
        follow_up = service.plan(service.request(toy_model, 32,
                                                 options=FAST))
        assert follow_up.best.config.n_gpus == report.cluster.n_gpus

    def test_apply_failure_without_request(self, service, toy_model,
                                           tiny_cluster):
        service.plan(service.request(toy_model, 32, options=FAST))
        old_fp = service.bandwidth_fp
        retired = service.apply_failure(1)
        assert retired == 1
        assert service.cluster.n_nodes == tiny_cluster.n_nodes - 1
        assert service.bandwidth.n_gpus == service.cluster.n_gpus
        assert service.bandwidth_fp != old_fp
        assert len(service.cache) == 0
        assert service.stats["profiled_models"] == 0
        follow_up = service.plan(service.request(toy_model, 32,
                                                 options=FAST))
        assert follow_up.status == "miss"
        assert follow_up.best.config.n_gpus == service.cluster.n_gpus

    def test_empty_failure_raises_and_changes_nothing(self, service,
                                                      toy_model):
        service.plan(service.request(toy_model, 32, options=FAST))
        before = (len(service.cache), service.bandwidth_fp, service.cluster)
        with pytest.raises(ValueError, match="at least one failed node"):
            service.apply_failure()
        assert (len(service.cache), service.bandwidth_fp,
                service.cluster) == before
        assert service.stats["profiled_models"] == 1

    def test_invalid_drift_refused_before_searching(self, service,
                                                    toy_model, tiny_network):
        """A drift re-plan with no usable matrix searches nothing.

        Like an invalid node failure, it is refused before the previous
        plan is searched, cached or counted.
        """
        request = service.request(toy_model, 32, options=SA_FAST)
        epoch = service.bandwidth_fp
        with pytest.raises(ValueError, match="new_bandwidth"):
            service.replan(request, ClusterEvent.bandwidth_drift(),
                           run_cold=False)
        with pytest.raises(ValueError, match="covers 8 GPUs"):
            service.replan(request, ClusterEvent.bandwidth_drift(),
                           new_bandwidth=tiny_network.bandwidth.restrict(
                               range(8)),
                           run_cold=False)
        stats = service.stats
        assert stats["cache_entries"] == 0
        assert stats["requests_submitted"] == 0
        assert stats["cache_misses"] == 0
        assert service.bandwidth_fp == epoch

    def test_stale_request_rejected_after_failure(self, service, toy_model):
        # A request built against the pre-failure cluster must not be
        # answered with a plan that maps workers onto dead GPUs.
        stale = service.request(toy_model, 32, options=FAST)
        service.replan(service.request(toy_model, 32, options=SA_FAST),
                       ClusterEvent.node_failure(0), run_cold=False)
        with pytest.raises(ValueError):
            service.plan(stale)

    def test_drift_replan_adopts_matrix_and_seeds_cache(self, service,
                                                        toy_model,
                                                        tiny_network):
        request = service.request(toy_model, 32, options=SA_FAST)
        bw = tiny_network.bandwidth
        # Even sub-threshold drift: the caller declared the event, so
        # the service must answer future plans against the new matrix.
        drifted = BandwidthMatrix(matrix=bw.matrix * 1.05, alpha=bw.alpha)
        report = service.replan(request, ClusterEvent.bandwidth_drift(),
                                new_bandwidth=drifted)
        assert service.bandwidth is drifted
        assert service.bandwidth_fp == drifted.fingerprint()
        follow_up = service.plan(request)
        assert follow_up.status == "hit"
        assert follow_up.result is report.cold_result

    def test_replan_honors_micro_batch_restriction(self, service, toy_model):
        request = service.request(toy_model, 32, micro_batches=(2,),
                                  options=SA_FAST)
        report = service.replan(request, ClusterEvent.node_failure(2))
        assert report.warm.config.micro_batch == 2
        assert report.cold.config.micro_batch == 2
        assert all(r.config.micro_batch == 2
                   for r in report.cold_result.ranked)


class TestParallelService:
    def test_executor_is_used_and_equivalent(self, tiny_cluster,
                                             tiny_network, toy_model):
        serial = PlanningService(tiny_cluster, tiny_network.bandwidth)
        baseline = serial.plan(serial.request(toy_model, 32,
                                              options=SA_FAST))
        with CandidateExecutor(max_workers=2) as executor:
            parallel = PlanningService(tiny_cluster, tiny_network.bandwidth,
                                       executor=executor)
            response = parallel.plan(parallel.request(toy_model, 32,
                                                      options=SA_FAST))
            assert executor.stats.batches >= 1
            assert parallel.stats["executor_workers"] == 2
        assert response.best.config == baseline.best.config
        assert response.best.estimated_latency_s == \
            baseline.best.estimated_latency_s

    @pytest.mark.parametrize("drift", [False, True],
                             ids=["node_failure", "bandwidth_drift"])
    def test_replan_through_the_pool_matches_serial(
            self, tiny_cluster, tiny_network, toy_model, drift):
        bw = tiny_network.bandwidth
        if drift:
            event = ClusterEvent.bandwidth_drift()
            drifted = BandwidthMatrix(matrix=bw.matrix * 0.7, alpha=bw.alpha)
        else:
            event, drifted = ClusterEvent.node_failure(1), None

        def outcome(executor):
            service = PlanningService(tiny_cluster, bw, executor=executor)
            report = service.replan(
                service.request(toy_model, 32, options=SA_FAST), event,
                new_bandwidth=drifted)
            return [(plan.config.describe(),
                     plan.estimated_latency_s.hex())
                    for plan in (report.warm, report.cold)
                    ] + [report.warm_source]

        serial = outcome(None)
        with CandidateExecutor(max_workers=2) as executor:
            pooled = outcome(executor)
        assert executor.stats.batches >= 1
        assert pooled == serial
