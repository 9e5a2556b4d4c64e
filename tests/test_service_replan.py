"""Elastic re-planning: mapping surgery, drift detection, warm starts."""

import numpy as np
import pytest

from repro.cluster.fabric import BandwidthMatrix
from repro.core import PipetteConfigurator, PipetteOptions, SAOptions
from repro.parallel import (
    Mapping,
    WorkerGrid,
    compact_mapping_after_failure,
    sequential_mapping,
)
from repro.service.planner import replan
from repro.service.replan import (
    ClusterEvent,
    bandwidth_drift_ratio,
    default_warm_sa,
    drift_exceeds,
    fabric_drift_ratio,
    shrink_cluster,
    surviving_gpus,
)


@pytest.fixture
def previous_plan(tiny_cluster, toy_model, tiny_network, toy_profile):
    """A finished search whose best entry we re-plan from."""
    configurator = PipetteConfigurator(
        tiny_cluster, toy_model, tiny_network.bandwidth, toy_profile, None,
        options=PipetteOptions(sa=SAOptions(max_iterations=200), sa_top_k=2,
                               seed=3))
    return configurator.search(32).best


class TestClusterEvent:
    def test_node_failure_sorts_nodes(self):
        event = ClusterEvent.node_failure(3, 1)
        assert event.failed_nodes == (1, 3)

    def test_node_failure_needs_nodes(self):
        with pytest.raises(ValueError):
            ClusterEvent(kind="node_failure")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ClusterEvent(kind="meteor_strike")


class TestShrinkHelpers:
    def test_surviving_gpus_excludes_failed_node(self, tiny_cluster):
        keep = surviving_gpus(tiny_cluster, [1])
        assert keep == [0, 1, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15]

    def test_shrink_cluster_counts(self, tiny_cluster):
        assert shrink_cluster(tiny_cluster, [0]).n_nodes == 3
        with pytest.raises(ValueError):
            shrink_cluster(tiny_cluster, [9])
        with pytest.raises(ValueError):
            shrink_cluster(tiny_cluster, range(tiny_cluster.n_nodes))


class TestMappingSurgery:
    def test_valid_permutation_preserving_survivors(self, tiny_cluster):
        grid = WorkerGrid(pp=2, tp=4, dp=2)
        # A deliberately shuffled learned placement.
        old = Mapping(grid, tiny_cluster, np.array([2, 0, 3, 1]))
        new_cluster = shrink_cluster(tiny_cluster, [1])
        new_grid = WorkerGrid(pp=3, tp=4, dp=1)
        warm = compact_mapping_after_failure(old, [1], new_cluster, new_grid)
        # tp=4 on 4-GPU nodes: one slot per node, node 1 is slot 1.
        # Surviving blocks kept slots 2, 0, 3 which compact to 1, 0, 2.
        assert warm.block_to_slot.tolist() == [1, 0, 2]

    def test_mismatched_tp_rejected(self, tiny_cluster):
        grid = WorkerGrid(pp=2, tp=4, dp=2)
        old = sequential_mapping(grid, tiny_cluster)
        new_cluster = shrink_cluster(tiny_cluster, [0])
        with pytest.raises(ValueError):
            compact_mapping_after_failure(old, [0], new_cluster,
                                          WorkerGrid(pp=6, tp=2, dp=1))

    def test_grid_cluster_size_checked(self, tiny_cluster):
        grid = WorkerGrid(pp=2, tp=4, dp=2)
        old = sequential_mapping(grid, tiny_cluster)
        with pytest.raises(ValueError):
            compact_mapping_after_failure(old, [0], tiny_cluster,
                                          WorkerGrid(pp=3, tp=4, dp=1))


class TestDrift:
    def test_ratio_zero_for_identical(self, tiny_network):
        bw = tiny_network.bandwidth
        assert bandwidth_drift_ratio(bw, bw) == 0.0

    def test_ratio_sees_degraded_link(self, tiny_network):
        bw = tiny_network.bandwidth
        matrix = bw.matrix.copy()
        matrix[0, 5] *= 0.7
        moved = BandwidthMatrix(matrix=matrix, alpha=bw.alpha)
        assert bandwidth_drift_ratio(bw, moved) == pytest.approx(0.3)
        assert drift_exceeds(bw, moved, threshold=0.1)
        assert not drift_exceeds(bw, moved, threshold=0.5)

    def test_size_mismatch_rejected(self, tiny_network):
        bw = tiny_network.bandwidth
        with pytest.raises(ValueError):
            bandwidth_drift_ratio(bw, bw.restrict(range(8)))

    def test_fabric_drift_over_days(self, tiny_fabric):
        assert fabric_drift_ratio(tiny_fabric, 0.0) == 0.0
        assert fabric_drift_ratio(tiny_fabric, 30.0) > 0.0

    def test_link_dying_is_infinite_drift(self, tiny_network):
        # Regression: a link that comes back NaN (failed measurement)
        # or inf in the new matrix used to be masked out entirely, so
        # a dead link reported 0 drift and kept stale plans alive.
        bw = tiny_network.bandwidth
        for poison in (np.nan, np.inf):
            matrix = bw.matrix.copy()
            matrix[0, 5] = poison
            dead = BandwidthMatrix(matrix=matrix, alpha=bw.alpha)
            assert bandwidth_drift_ratio(bw, dead) == np.inf
            assert drift_exceeds(bw, dead, threshold=1e9)

    def test_zero_baseline_link_is_infinite_drift(self, tiny_network):
        # Regression: dividing by a 0 GB/s baseline emitted inf/NaN
        # warnings instead of a clean infinite-drift verdict.
        bw = tiny_network.bandwidth
        matrix = bw.matrix.copy()
        matrix[0, 5] = 0.0
        zeroed = BandwidthMatrix(matrix=matrix, alpha=bw.alpha)
        with np.errstate(divide="raise", invalid="raise"):
            assert bandwidth_drift_ratio(zeroed, bw) == np.inf

    def test_zero_link_staying_zero_is_no_drift(self, tiny_network):
        bw = tiny_network.bandwidth
        matrix = bw.matrix.copy()
        matrix[0, 5] = 0.0
        zeroed = BandwidthMatrix(matrix=matrix, alpha=bw.alpha)
        with np.errstate(divide="raise", invalid="raise"):
            assert bandwidth_drift_ratio(zeroed, zeroed) == 0.0

    def test_recovered_link_still_measures_others(self, tiny_network):
        # A NaN-in-old link that becomes measurable contributes no
        # ratio (no finite baseline), but surviving links still do.
        bw = tiny_network.bandwidth
        matrix = bw.matrix.copy()
        matrix[0, 5] = np.nan
        old = BandwidthMatrix(matrix=matrix, alpha=bw.alpha)
        newer = bw.matrix.copy()
        newer[1, 4] *= 0.5
        new = BandwidthMatrix(matrix=newer, alpha=bw.alpha)
        assert bandwidth_drift_ratio(old, new) == pytest.approx(0.5)


class TestWarmSADefaults:
    def test_iteration_budget_scaled(self):
        warm = default_warm_sa(SAOptions(max_iterations=4000))
        assert warm.max_iterations == 1000

    def test_time_budget_scaled(self):
        warm = default_warm_sa(SAOptions(time_limit_s=10.0,
                                         max_iterations=None))
        assert warm.time_limit_s == pytest.approx(2.5)
        assert warm.max_iterations is None


class TestReplanAfterFailure:
    def test_mapping_excludes_failed_gpus(self, tiny_cluster, toy_model,
                                          tiny_network, toy_profile,
                                          previous_plan):
        event = ClusterEvent.node_failure(1)
        report = replan(tiny_cluster, toy_model, tiny_network.bandwidth,
                        toy_profile, previous_plan, event,
                        options=PipetteOptions(
                            sa=SAOptions(max_iterations=200), sa_top_k=2,
                            seed=3))
        new_cluster = report.cluster
        assert new_cluster.n_nodes == tiny_cluster.n_nodes - 1
        assert report.warm.config.n_gpus == new_cluster.n_gpus
        # The warm mapping is a bijection onto the surviving cluster:
        # every worker lands on a (renumbered) surviving GPU.
        mapping = report.warm.mapping
        assert mapping.cluster.n_gpus == new_cluster.n_gpus
        used = {mapping.gpu(x, y, z)
                for x in range(mapping.grid.pp)
                for y in range(mapping.grid.tp)
                for z in range(mapping.grid.dp)}
        assert used == set(range(new_cluster.n_gpus))

    def test_warm_competitive_with_cold(self, tiny_cluster, toy_model,
                                        tiny_network, toy_profile,
                                        previous_plan):
        report = replan(tiny_cluster, toy_model, tiny_network.bandwidth,
                        toy_profile, previous_plan,
                        ClusterEvent.node_failure(2),
                        options=PipetteOptions(
                            sa=SAOptions(max_iterations=400), sa_top_k=3,
                            seed=3))
        assert report.cold is not None
        # Warm keeps quality (generous 10% bound for a unit test) and
        # must not spend more search time than the cold path.
        assert report.latency_gap < 0.10
        assert report.warm_search_s < report.cold_search_s
        assert report.search_speedup > 1.0

    def test_replan_without_cold(self, tiny_cluster, toy_model, tiny_network,
                                 toy_profile, previous_plan):
        report = replan(tiny_cluster, toy_model, tiny_network.bandwidth,
                        toy_profile, previous_plan,
                        ClusterEvent.node_failure(0),
                        options=PipetteOptions(
                            sa=SAOptions(max_iterations=100), seed=3),
                        run_cold=False)
        assert report.cold is None
        with pytest.raises(ValueError):
            _ = report.latency_gap
        with pytest.raises(ValueError):
            _ = report.search_speedup


class TestReplanAfterDrift:
    def test_drift_needs_new_matrix(self, tiny_cluster, toy_model,
                                    tiny_network, toy_profile, previous_plan):
        with pytest.raises(ValueError):
            replan(tiny_cluster, toy_model, tiny_network.bandwidth,
                   toy_profile, previous_plan, ClusterEvent.bandwidth_drift())

    def test_same_cluster_warm_start(self, tiny_cluster, tiny_fabric,
                                     toy_model, tiny_network, toy_profile,
                                     previous_plan):
        drifted = tiny_fabric.bandwidth_at_day(30.0)
        report = replan(tiny_cluster, toy_model, tiny_network.bandwidth,
                        toy_profile, previous_plan,
                        ClusterEvent.bandwidth_drift(day=30.0),
                        new_bandwidth=drifted,
                        options=PipetteOptions(
                            sa=SAOptions(max_iterations=200), sa_top_k=2,
                            seed=3))
        assert report.cluster.n_gpus == tiny_cluster.n_gpus
        assert report.warm.config.n_gpus == tiny_cluster.n_gpus
        assert report.warm_search_s < report.cold_search_s



class TestWarmSource:
    """Where the polished warm start came from: best, portfolio, cold.

    The conftest world's drift leader is permutation-invariant (pp=1),
    so these tests build their own heterogeneous fabric whose post-
    drift leader runs a real pipeline — random mappings then score
    differently and the deck can be stacked deterministically.
    """

    @pytest.fixture(scope="class")
    def drift_world(self):
        from dataclasses import replace as dc_replace

        from repro.cluster import Fabric, HeterogeneityModel
        from repro.cluster.topology import (
            ClusterSpec,
            GpuSpec,
            LinkSpec,
            NodeSpec,
        )
        from repro.core.latency_kernel import pipette_kernel
        from repro.model import get_model
        from repro.profiling import profile_compute
        from repro.units import GIB

        gpu = GpuSpec(name="TestGPU", memory_bytes=4 * GIB,
                      peak_flops=10e12, achievable_fraction=0.5,
                      hbm_gb_s=500.0)
        node = NodeSpec(gpus_per_node=4, gpu=gpu,
                        intra_link=LinkSpec("TestNVLink", 100.0,
                                            alpha_s=1e-6))
        cluster = ClusterSpec(name="tiny", n_nodes=4, node=node,
                              inter_link=LinkSpec("TestIB", 10.0,
                                                  alpha_s=1e-5))
        fabric = Fabric(cluster, heterogeneity=HeterogeneityModel(),
                        seed=11)
        model = get_model("gpt-toy")
        profile = profile_compute(model, cluster, noise_sigma=0.01, seed=5)
        bandwidth = fabric.bandwidth()
        drifted = fabric.bandwidth_at_day(30.0)
        options = PipetteOptions(sa=SAOptions(max_iterations=200),
                                 sa_top_k=2, seed=3)
        previous = PipetteConfigurator(
            cluster, model, bandwidth, profile, None,
            options=options).search(32).best
        event = ClusterEvent.bandwidth_drift(day=30.0)

        def run(prev):
            return replan(cluster, model, bandwidth, profile, prev, event,
                          new_bandwidth=drifted, options=options,
                          run_cold=False)

        # The naive re-rank that picks the leader ignores `previous`,
        # so one probe re-plan reveals the leader's shape; then score
        # a spread of random mappings on that shape with the same
        # kernel replan() uses, keeping the strongest and weakest.
        leader_config = run(previous).warm.config
        kernel = pipette_kernel(model, leader_config, cluster, drifted,
                                profile)
        grid = WorkerGrid(pp=leader_config.pp, tp=leader_config.tp,
                          dp=leader_config.dp)
        base = sequential_mapping(grid, cluster)
        rng = np.random.default_rng(17)
        perms = np.stack([rng.permutation(grid.n_blocks)
                          for _ in range(8)]).astype(np.int64)
        values = kernel.evaluate_batch(perms)
        assert values.min() < values.max()
        strong = base.with_block_permutation(
            perms[int(np.argmin(values))].copy())
        weak = base.with_block_permutation(
            perms[int(np.argmax(values))].copy())

        def shaped_previous(mapping, portfolio):
            return dc_replace(previous, config=leader_config,
                              mapping=mapping, portfolio=portfolio)

        return shaped_previous, run, (strong, weak), previous, leader_config

    def test_portfolio_member_beating_best_wins(self, drift_world):
        shaped_previous, run, (strong, weak), _, _ = drift_world
        report = run(shaped_previous(mapping=weak, portfolio=(strong,)))
        assert report.warm_source == "portfolio"

    def test_best_wins_when_portfolio_is_weaker(self, drift_world):
        shaped_previous, run, (strong, weak), _, _ = drift_world
        report = run(shaped_previous(mapping=strong, portfolio=(weak,)))
        assert report.warm_source == "best"

    def test_empty_portfolio_warm_starts_from_best(self, drift_world):
        shaped_previous, run, (strong, weak), _, _ = drift_world
        report = run(shaped_previous(mapping=weak, portfolio=()))
        assert report.warm_source == "best"

    def test_shape_change_falls_back_to_cold(self, drift_world):
        # The unmodified previous plan's shape differs from the
        # post-drift leader's, so nothing carries over.
        _, run, _, previous, leader_config = drift_world
        assert (previous.config.pp, previous.config.tp,
                previous.config.dp) != (leader_config.pp, leader_config.tp,
                                        leader_config.dp)
        report = run(previous)
        assert report.warm_source == "cold"

    def test_failure_surgery_rejecting_all_is_cold(
            self, tiny_cluster, toy_model, tiny_network, toy_profile,
            previous_plan):
        # On this world the post-failure leader changes tensor-parallel
        # width, so mapping surgery rejects every carried-over
        # candidate and the re-plan honestly reports a cold start.
        report = replan(tiny_cluster, toy_model, tiny_network.bandwidth,
                        toy_profile, previous_plan,
                        ClusterEvent.node_failure(1),
                        options=PipetteOptions(
                            sa=SAOptions(max_iterations=100), sa_top_k=2,
                            seed=3),
                        run_cold=False)
        assert report.warm.config.tp != previous_plan.config.tp
        assert report.warm_source == "cold"
