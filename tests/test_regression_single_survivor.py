"""Regression: mapping surgery + warm anneal on a one-node survivor.

The degenerate end of elastic replanning: enough nodes fail that the
survivor cluster collapses to one node, the re-ranked leader has
``pp == 1`` (often ``pp == tp == dp == 1``, a single-block grid), and
the warm path runs :func:`~repro.parallel.mapping.
compact_mapping_after_failure` followed by the anneal polish over a
permutation space with exactly one state.

Historically risky on two axes, both pinned here:

* **budget spin** — the anneal used to treat the single-state space
  like any other, burning its whole iteration (or, in production,
  wall-clock) budget re-scoring the same permutation.  All three SA
  loops now exit with ``exit_reason="degenerate"`` after the single
  possible evaluation, so one-node-survivor recovery stays instant.
* **silent misranking** — the warm answer must still agree with the
  cold search and with the reference latency estimator bit for bit;
  a degenerate shortcut that returned a stale or unscored value would
  pass every smoke test while misreporting recovery quality.
"""

import numpy as np
import pytest

from annealing_oracle import anneal_mapping_reference
from repro.cluster import Fabric, HeterogeneityModel, NetworkProfiler
from repro.cluster.topology import ClusterSpec, GpuSpec, LinkSpec, NodeSpec
from repro.core import PipetteOptions, SAOptions
from repro.core.annealing import anneal_mapping
from repro.core.configurator import SearchContext, candidate_kernel
from repro.core.latency_model import pipette_latency
from repro.model import get_model
from repro.parallel import (
    ParallelConfig,
    WorkerGrid,
    compact_mapping_after_failure,
    sequential_mapping,
)
from repro.profiling import profile_compute
from repro.service import ClusterEvent, PlanningService
from repro.service.replan import shrink_cluster
from repro.units import GIB

FAST = PipetteOptions(sa=SAOptions(max_iterations=60, portfolio_k=2),
                      sa_top_k=2, seed=5)
GLOBAL_BATCH = 16


def _world(n_nodes, gpus_per_node):
    gpu = GpuSpec(name="TestGPU", memory_bytes=8 * GIB, peak_flops=10e12,
                  achievable_fraction=0.5, hbm_gb_s=500.0)
    node = NodeSpec(gpus_per_node=gpus_per_node, gpu=gpu,
                    intra_link=LinkSpec("TestNVLink", 100.0, alpha_s=1e-6))
    cluster = ClusterSpec(name="reg", n_nodes=n_nodes, node=node,
                          inter_link=LinkSpec("TestIB", 10.0, alpha_s=1e-5))
    fabric = Fabric(cluster, heterogeneity=HeterogeneityModel(), seed=42)
    network = NetworkProfiler(n_rounds=2).profile(fabric, seed=7)
    return cluster, network.bandwidth


class TestDegenerateAnneal:
    """The SA loops on a single-block grid."""

    @pytest.fixture
    def single_block_world(self):
        cluster, bandwidth = _world(n_nodes=1, gpus_per_node=1)
        model = get_model("gpt-toy")
        profile = profile_compute(model, cluster, noise_sigma=0.0)
        config = ParallelConfig(pp=1, tp=1, dp=1, micro_batch=8,
                                global_batch=GLOBAL_BATCH)
        ctx = SearchContext(cluster=cluster, model=model,
                            bandwidth=bandwidth, profile=profile,
                            memory_estimator=None,
                            sa=SAOptions(max_iterations=50))
        kernel = candidate_kernel(ctx, config)
        grid = WorkerGrid(pp=1, tp=1, dp=1)
        mapping = sequential_mapping(grid, cluster)
        return mapping, kernel, model, cluster, config, profile, bandwidth

    def test_exits_after_one_evaluation(self, single_block_world):
        mapping, kernel, *_ = single_block_world
        result = anneal_mapping(mapping, kernel,
                                SAOptions(max_iterations=50).with_seed(5))
        assert result.exit_reason == "degenerate"
        assert result.iterations == 0
        assert result.evaluations == 1
        assert np.array_equal(result.mapping.block_to_slot, [0])

    def test_does_not_spin_a_wall_clock_budget(self, single_block_world):
        mapping, kernel, *_ = single_block_world
        result = anneal_mapping(
            mapping, kernel,
            SAOptions(time_limit_s=30.0, max_iterations=None).with_seed(5))
        assert result.exit_reason == "degenerate"
        # The whole point: nowhere near the 30 s budget.
        assert result.elapsed_s < 1.0

    def test_value_matches_the_reference_estimator(self, single_block_world):
        mapping, kernel, model, cluster, config, profile, bw = \
            single_block_world
        result = anneal_mapping(mapping, kernel,
                                SAOptions(max_iterations=50).with_seed(5))
        reference = pipette_latency(model, config, result.mapping, bw,
                                    profile)
        assert result.value == reference
        assert result.initial_value == result.value

    def test_fast_and_reference_loops_agree(self, single_block_world):
        mapping, kernel, model, cluster, config, profile, bw = \
            single_block_world
        opts = SAOptions(max_iterations=50).with_seed(5)
        fast = anneal_mapping(mapping, kernel, opts)

        def objective(m):
            return pipette_latency(model, config, m, bw, profile)

        ref = anneal_mapping_reference(mapping, objective, opts)
        assert ref.exit_reason == fast.exit_reason == "degenerate"
        assert ref.value == fast.value
        assert np.array_equal(ref.mapping.block_to_slot,
                              fast.mapping.block_to_slot)

    def test_portfolio_holds_exactly_the_single_state(self,
                                                      single_block_world):
        mapping, kernel, *_ = single_block_world
        result = anneal_mapping(
            mapping, kernel,
            SAOptions(max_iterations=50, portfolio_k=3).with_seed(5))
        assert len(result.portfolio) == 1
        held, value = result.portfolio[0]
        assert np.array_equal(held.block_to_slot, [0])
        assert value == result.value


class TestSingleSurvivorReplan:
    """Surgery + polish end to end through the service."""

    def test_surgery_then_polish_matches_cold(self):
        """tp carries over, pp collapses to 1: warm == cold exactly."""
        cluster, bandwidth = _world(n_nodes=2, gpus_per_node=2)
        model = get_model("gpt-toy")
        service = PlanningService(cluster, bandwidth)
        request = service.request(model, GLOBAL_BATCH, options=FAST)
        previous = service.plan(request).best
        report = service.replan(request, ClusterEvent.node_failure(1),
                                run_cold=True)
        assert report.cluster.n_nodes == 1
        assert report.warm.config.pp == 1
        assert report.warm_source in ("best", "portfolio", "cold")
        assert report.warm.estimated_latency_s \
            <= report.cold.estimated_latency_s
        reference = pipette_latency(
            model, report.warm.config, report.warm.mapping,
            report.bandwidth, service.profile_for(model))
        assert report.warm.estimated_latency_s == reference

    def test_single_block_survivor_replans_instantly(self):
        """1 GPU left: the polish is the degenerate exit, not a spin."""
        cluster, bandwidth = _world(n_nodes=2, gpus_per_node=1)
        model = get_model("gpt-toy")
        service = PlanningService(cluster, bandwidth)
        request = service.request(model, GLOBAL_BATCH, options=FAST)
        service.plan(request)
        report = service.replan(request, ClusterEvent.node_failure(1),
                                run_cold=True)
        assert report.cluster.n_nodes == 1
        config = report.warm.config
        assert (config.pp, config.tp, config.dp) == (1, 1, 1)
        assert np.array_equal(report.warm.mapping.block_to_slot, [0])
        assert report.warm.estimated_latency_s \
            == report.cold.estimated_latency_s

    def test_template_path_handles_the_single_block_count(self):
        """A warmed library answers the 1-node count without misranking."""
        cluster, bandwidth = _world(n_nodes=2, gpus_per_node=1)
        model = get_model("gpt-toy")
        service = PlanningService(cluster, bandwidth)
        library = service.warm_templates(model, GLOBAL_BATCH, min_nodes=1,
                                         options=FAST)
        assert 1 in library.covered_counts
        entries = library.templates_for(1)
        latencies = [t.estimated_latency_s for t in entries]
        assert latencies == sorted(latencies)
        request = service.request(model, GLOBAL_BATCH, options=FAST)
        report = service.replan(request, ClusterEvent.node_failure(1),
                                run_cold=True)
        assert report.warm_source == "template"
        assert report.warm.estimated_latency_s \
            <= report.cold.estimated_latency_s

    def test_direct_surgery_truncates_onto_one_slot(self):
        """compact_mapping_after_failure's truncate/fill on n_blocks=1."""
        cluster, _ = _world(n_nodes=2, gpus_per_node=1)
        old_grid = WorkerGrid(pp=2, tp=1, dp=1)
        old_mapping = sequential_mapping(old_grid, cluster)
        survivor = shrink_cluster(cluster, [1])
        new_grid = WorkerGrid(pp=1, tp=1, dp=1)
        surgery = compact_mapping_after_failure(old_mapping, [1], survivor,
                                                new_grid)
        assert np.array_equal(surgery.block_to_slot, [0])
        assert surgery.grid == new_grid
        assert surgery.cluster == survivor
