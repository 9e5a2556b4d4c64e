"""Multi-cluster registry: routing, cheapest-feasible planning, isolation.

Cheapest-feasible planning is the transports' unpinned fan-out
(:func:`repro.service.http.answer_payload`) over a registry; those
tests drive it through a gateway.
"""

import asyncio

import pytest

from repro.cluster import Fabric, HeterogeneityModel, NetworkProfiler
from repro.cluster.topology import ClusterSpec, GpuSpec, LinkSpec, NodeSpec
from repro.core import PipetteOptions
from repro.service import (
    ClusterRegistry,
    DurablePlanCache,
    PlanGateway,
    PlanningService,
    PlanRequest,
    answer_payload,
)
from repro.units import GIB

FAST = PipetteOptions(use_worker_dedication=False)


def _cluster(name: str, n_nodes: int, inter_gb_s: float = 10.0,
             flops: float = 10e12) -> ClusterSpec:
    gpu = GpuSpec(name=f"{name}-GPU", memory_bytes=4 * GIB, peak_flops=flops,
                  achievable_fraction=0.5, hbm_gb_s=500.0)
    node = NodeSpec(gpus_per_node=4, gpu=gpu,
                    intra_link=LinkSpec("NVL", 100.0, alpha_s=1e-6))
    return ClusterSpec(name=name, n_nodes=n_nodes, node=node,
                       inter_link=LinkSpec("IB", inter_gb_s, alpha_s=1e-5))


def _bandwidth(cluster: ClusterSpec, seed: int):
    fabric = Fabric(cluster, heterogeneity=HeterogeneityModel(), seed=seed)
    return NetworkProfiler(n_rounds=2).profile(fabric, seed=seed).bandwidth


def _ask(registry: ClusterRegistry, name: str, model):
    """Ask the named cluster's service directly (gpt-toy, batch 16)."""
    service = registry.service(name)
    return service.plan(service.request(model, 16, options=FAST))


def _cheapest(registry: ClusterRegistry, **payload):
    """Answer an unpinned gpt-toy request: the cheapest-feasible path."""
    async def main():
        async with PlanGateway(registry) as gateway:
            return await answer_payload(
                gateway, FAST,
                {"model": "gpt-toy", "global_batch": 16, **payload})

    return asyncio.run(main())


@pytest.fixture
def slow_cluster() -> ClusterSpec:
    return _cluster("slow", n_nodes=2, flops=5e12)


@pytest.fixture
def fast_cluster() -> ClusterSpec:
    return _cluster("fast", n_nodes=2, flops=40e12)


@pytest.fixture
def registry(slow_cluster, fast_cluster) -> ClusterRegistry:
    reg = ClusterRegistry()
    reg.add_cluster("slow", slow_cluster, _bandwidth(slow_cluster, seed=1))
    reg.add_cluster("fast", fast_cluster, _bandwidth(fast_cluster, seed=2))
    return reg


class TestMembership:
    def test_names_in_registration_order(self, registry):
        assert registry.names == ["slow", "fast"]

    def test_duplicate_name_rejected(self, registry, slow_cluster):
        with pytest.raises(ValueError, match="already registered"):
            registry.add_cluster("slow", slow_cluster,
                                 _bandwidth(slow_cluster, seed=1))

    def test_unknown_name_rejected(self, registry):
        with pytest.raises(ValueError, match="unknown cluster"):
            registry.service("nope")

    def test_register_existing_service(self, slow_cluster):
        reg = ClusterRegistry()
        service = PlanningService(slow_cluster,
                                  _bandwidth(slow_cluster, seed=1))
        assert reg.register("s", service) is service
        assert reg.service("s") is service


class TestRouting:
    def test_route_by_spec_match(self, registry, fast_cluster, toy_model):
        request = PlanRequest(cluster=fast_cluster, model=toy_model,
                              global_batch=16, options=FAST)
        assert registry.route(request) == "fast"
        response = registry.service(registry.route(request)).plan(request)
        assert response.status == "miss"
        assert response.best is not None

    def test_route_unknown_spec_rejected(self, registry, toy_model):
        stranger = _cluster("stranger", n_nodes=3)
        request = PlanRequest(cluster=stranger, model=toy_model,
                              global_batch=16, options=FAST)
        with pytest.raises(ValueError, match="no registered cluster"):
            registry.route(request)

    def test_pinned_plan(self, registry, slow_cluster, toy_model):
        request = PlanRequest(cluster=slow_cluster, model=toy_model,
                              global_batch=16, options=FAST)
        response = registry.service("slow").plan(request)
        assert response.status == "miss"
        assert registry.stats["slow"]["cache_entries"] == 1
        assert registry.stats["fast"]["cache_entries"] == 0

    def test_service_request_is_bound_to_its_cluster(self, registry,
                                                     toy_model):
        response = _ask(registry, "slow", toy_model)
        assert response.request.cluster == registry.service("slow").cluster

    def test_repeats_hit_per_cluster_cache(self, registry, toy_model):
        first = _ask(registry, "slow", toy_model)
        second = _ask(registry, "slow", toy_model)
        assert (first.status, second.status) == ("miss", "hit")


class TestCheapestFeasible:
    def test_picks_lower_latency_cluster(self, registry, toy_model):
        routed = _cheapest(registry)
        assert routed.cluster_name == "fast"  # 8x the FLOPs
        slow_best = _ask(registry, "slow", toy_model).best
        assert routed.best.estimated_latency_s \
            <= slow_best.estimated_latency_s

    def test_searches_every_cluster_once(self, registry):
        _cheapest(registry)
        stats = registry.stats
        assert stats["slow"]["cache_entries"] == 1
        assert stats["fast"]["cache_entries"] == 1
        # A repeat is answered from both caches, no new searches.
        routed = _cheapest(registry)
        assert routed.status == "hit"
        assert registry.stats["slow"]["cache_misses"] == 1

    def test_empty_registry_rejected(self):
        with pytest.raises(ValueError, match="no clusters"):
            _cheapest(ClusterRegistry())

    def test_infeasible_everywhere_raises(self, registry):
        # A microbatch of 5 divides no minibatch of 16, so every
        # cluster enumerates zero configurations.
        with pytest.raises(RuntimeError, match="no cluster can serve"):
            _cheapest(registry, micro_batches=[5])


class TestElasticIsolation:
    def test_node_failure_leaves_sibling_cache_intact(self, registry,
                                                      toy_model):
        _ask(registry, "slow", toy_model)
        _ask(registry, "fast", toy_model)
        retired = registry.service("slow").apply_failure(1)
        assert retired == 1
        assert registry.service("slow").cluster.n_nodes == 1
        # The sibling's cluster, epoch, and cache are untouched.
        assert registry.service("fast").cluster.n_nodes == 2
        assert len(registry.service("fast").cache) == 1
        hot = _ask(registry, "fast", toy_model)
        assert hot.status == "hit"
        # The failed cluster re-plans on demand on its shrunken spec.
        replanned = _ask(registry, "slow", toy_model)
        assert replanned.status == "miss"
        assert replanned.best.config.n_gpus \
            == registry.service("slow").cluster.n_gpus

    def test_bandwidth_update_is_per_cluster(self, registry, slow_cluster,
                                             toy_model):
        _ask(registry, "slow", toy_model)
        _ask(registry, "fast", toy_model)
        fast_fp = registry.service("fast").bandwidth_fp
        drifted = _bandwidth(slow_cluster, seed=99)
        retired = registry.service("slow").update_bandwidth(
            drifted, drift_threshold=0.0)
        assert retired == 1
        assert registry.service("fast").bandwidth_fp == fast_fp
        assert len(registry.service("fast").cache) == 1

    def test_durable_caches_stay_per_cluster(self, slow_cluster,
                                             fast_cluster, toy_model,
                                             tmp_path):
        def build():
            reg = ClusterRegistry()
            reg.add_cluster("slow", slow_cluster,
                            _bandwidth(slow_cluster, seed=1),
                            cache=DurablePlanCache(tmp_path / "slow.jsonl"))
            reg.add_cluster("fast", fast_cluster,
                            _bandwidth(fast_cluster, seed=2),
                            cache=DurablePlanCache(tmp_path / "fast.jsonl"))
            return reg

        first = build()
        _ask(first, "slow", toy_model)
        _ask(first, "fast", toy_model)

        reborn = build()  # a registry restart
        assert _ask(reborn, "slow", toy_model).status == "hit"
        assert _ask(reborn, "fast", toy_model).status == "hit"


class TestStats:
    def test_stats_keyed_by_cluster(self, registry, toy_model):
        _ask(registry, "slow", toy_model)
        stats = registry.stats
        assert set(stats) == {"slow", "fast"}
        assert stats["slow"]["cache_misses"] == 1
        assert stats["fast"]["cache_misses"] == 0


class TestCheapestTieBreak:
    def _twin_registry(self, order):
        """Two names over one identical cluster+matrix: a perfect tie."""
        twin = _cluster("twin", n_nodes=2)
        bandwidth = _bandwidth(twin, seed=7)
        reg = ClusterRegistry()
        for name in order:
            reg.add_cluster(name, twin, bandwidth)
        return reg

    def test_tie_breaks_by_cluster_name_not_registration_order(
            self, toy_model):
        # Regression: the tie-break used to be registration rank, so
        # an operator re-registering the same fleet in a different
        # order silently moved tied workloads to a different cluster.
        winners = set()
        for order in (("zeta", "alpha"), ("alpha", "zeta")):
            reg = self._twin_registry(order)
            routed = _cheapest(reg)
            assert routed.best is not None
            winners.add(routed.cluster_name)
        assert winners == {"alpha"}


class TestRegistryQueueing:
    def test_event_between_submit_and_drain_fences_tickets(self, registry,
                                                           toy_model):
        # A failure landing while a request waits on its lane must not
        # answer the stale request with a plan that maps onto dead
        # GPUs.
        slow = registry.service("slow")
        stale = slow.request(toy_model, 16, options=FAST)

        async def main():
            async with PlanGateway(registry) as gateway:
                # Holding the lane's fence parks its next drain,
                # so the request is queued when the failure lands.
                async with gateway._lane("slow").fence:
                    pending = asyncio.ensure_future(gateway.plan(stale))
                    while gateway.stats.read("submitted") < 1:
                        await asyncio.sleep(0.01)
                    registry.service("slow").apply_failure(0)
                with pytest.raises(ValueError, match="match exactly"):
                    await pending
                # Post-event work plans cleanly on the survivors.
                survivor = registry.service("slow")
                return await gateway.plan(
                    survivor.request(toy_model, 16, options=FAST))

        fresh = asyncio.run(main())
        assert fresh.status == "miss"
        assert fresh.best.config.n_gpus \
            == registry.service("slow").cluster.n_gpus
