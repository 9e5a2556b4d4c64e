"""Algorithm 1: the Pipette search procedure and its variants."""

import pytest

from repro.cluster import NetworkProfiler, make_fabric
from repro.cluster.presets import mid_range_cluster
from repro.core import PipetteConfigurator, PipetteOptions, SAOptions
from repro.core.configurator import pipette_l, pipette_lf, score_unit
from repro.core.latency_model import pipette_latency
from repro.model import get_model
from repro.parallel import (
    ParallelConfig,
    WorkerGrid,
    sequential_mapping,
)
from repro.profiling import profile_compute
from repro.sim.schedule import registered_schedules


class OracleEstimator:
    """Memory estimator backed by the ground truth (test double)."""

    soft_margin = 0.92

    def __init__(self, cluster, seed=5):
        self.cluster = cluster
        self.seed = seed

    def predict_bytes(self, model, config, n_gpus=None):
        from repro.sim.memory_sim import simulated_max_memory_bytes
        return simulated_max_memory_bytes(model, config, self.cluster,
                                          seed=self.seed)


@pytest.fixture
def configurator(tiny_cluster, toy_model, tiny_network, toy_profile):
    return PipetteConfigurator(
        tiny_cluster, toy_model, tiny_network.bandwidth, toy_profile,
        OracleEstimator(tiny_cluster),
        options=PipetteOptions(use_worker_dedication=False))


class TestOptionsValidation:
    """``PipetteOptions`` refuses bad knobs at construction.

    Unchecked, ``sa_top_k=-1`` annealed all but one candidate, a float
    top-k raised after enumeration and scoring, a float seed was
    truncated per leader, a negative seed failed only at refinement
    and ``max_micro_batch=0`` swept nothing.
    """

    @pytest.mark.parametrize("kwargs", [
        {"sa_top_k": 2.5}, {"sa_top_k": True}, {"seed": 1.5},
        {"seed": False}, {"max_micro_batch": 8.0},
        {"max_micro_batch": None}, {"seed": "3"},
    ])
    def test_non_int_knobs_are_refused(self, kwargs):
        with pytest.raises(TypeError, match="must be an int"):
            PipetteOptions(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"sa_top_k": -1}, {"seed": -3}, {"max_micro_batch": 0},
    ])
    def test_out_of_range_knobs_are_refused(self, kwargs):
        with pytest.raises(ValueError, match=">="):
            PipetteOptions(**kwargs)

    def test_legal_knobs_keep_their_fingerprints(self):
        import hashlib

        import numpy as np

        from repro.service.cache import canonical_json

        def digest(options):
            return hashlib.sha256(
                canonical_json(options).encode()).hexdigest()

        assert PipetteOptions(seed=np.int64(3)).seed == 3
        assert digest(PipetteOptions()) == \
            "6663f958c130d9bebaa4801e78d234c4d2bdff1a90c3a8cf080376ff18fd1816"
        assert digest(PipetteOptions(sa_top_k=0, max_micro_batch=1,
                                     seed=3)) == \
            "4bfea1d881379df74e5f57640cee8339df52cd32c04aae3b33e6aeeb7164951c"


class TestSearchBasics:
    def test_returns_feasible_best(self, configurator, tiny_cluster,
                                   toy_model):
        result = configurator.search(32)
        assert result.best is not None
        assert result.best.memory_ok
        from repro.sim.memory_sim import is_oom
        assert not is_oom(toy_model, result.best.config, tiny_cluster,
                          seed=5)

    def test_ranked_sorted_by_latency(self, configurator):
        result = configurator.search(32)
        latencies = [r.estimated_latency_s for r in result.ranked]
        assert latencies == sorted(latencies)

    def test_best_is_first_ranked(self, configurator):
        result = configurator.search(32)
        assert result.best is result.ranked[0]

    def test_configs_use_all_gpus(self, configurator, tiny_cluster):
        result = configurator.search(32)
        for entry in result.ranked:
            assert entry.config.n_gpus == tiny_cluster.n_gpus

    def test_memory_filter_counts_rejections(self, tiny_cluster, toy_model,
                                             tiny_network, toy_profile):
        # With a tiny memory limit most configurations are rejected.
        configurator = PipetteConfigurator(
            tiny_cluster, toy_model, tiny_network.bandwidth, toy_profile,
            OracleEstimator(tiny_cluster),
            options=PipetteOptions(use_worker_dedication=False))
        generous = configurator.search(32)
        strict = configurator.search(
            32, memory_limit_bytes=tiny_cluster.gpu_memory_bytes / 8)
        assert strict.rejected_oom > generous.rejected_oom

    def test_without_estimator_nothing_rejected(self, tiny_cluster, toy_model,
                                                tiny_network, toy_profile):
        configurator = PipetteConfigurator(
            tiny_cluster, toy_model, tiny_network.bandwidth, toy_profile,
            None, options=PipetteOptions(use_worker_dedication=False))
        result = configurator.search(32)
        assert result.rejected_oom == 0

    def test_micro_batch_restriction(self, configurator):
        result = configurator.search(32, micro_batches=[2])
        assert result.ranked
        assert all(r.config.micro_batch == 2 for r in result.ranked)

    def test_margin_relaxes_when_nothing_passes(self, tiny_cluster, toy_model,
                                                tiny_network, toy_profile):
        # Pick a limit so tight the soft margin excludes everything but
        # the raw limit still admits the leanest configuration(s).
        from repro.sim.memory_sim import simulated_max_memory_bytes
        from repro.parallel import enumerate_parallel_configs
        configs = enumerate_parallel_configs(
            tiny_cluster.n_gpus, 32, gpus_per_node=4,
            n_layers=toy_model.n_layers)
        leanest = min(simulated_max_memory_bytes(toy_model, c, tiny_cluster,
                                                 seed=5) for c in configs)
        configurator = PipetteConfigurator(
            tiny_cluster, toy_model, tiny_network.bandwidth, toy_profile,
            OracleEstimator(tiny_cluster),
            options=PipetteOptions(use_worker_dedication=False))
        result = configurator.search(32, memory_limit_bytes=leanest * 1.01)
        assert result.best is not None
        assert len(result.ranked) >= 1

    def test_bandwidth_gpu_count_checked(self, tiny_cluster, toy_model,
                                         tiny_network, toy_profile):
        small = tiny_cluster.scaled_to(1)
        with pytest.raises(ValueError):
            PipetteConfigurator(small, toy_model, tiny_network.bandwidth,
                                toy_profile, None)

    def test_timing_fields_populated(self, configurator):
        result = configurator.search(32)
        assert result.total_s > 0
        assert result.memory_check_s >= 0
        assert result.annealing_s == 0.0  # dedication off


class TestWorkerDedication:
    def test_lf_at_least_as_good_as_l(self, tiny_cluster, toy_model,
                                      tiny_network, toy_profile):
        estimator = OracleEstimator(tiny_cluster)
        opts = PipetteOptions(sa=SAOptions(max_iterations=400, seed=3),
                              sa_top_k=2)
        l_conf = pipette_l(tiny_cluster, toy_model, tiny_network.bandwidth,
                           toy_profile, estimator, opts)
        lf_conf = pipette_lf(tiny_cluster, toy_model, tiny_network.bandwidth,
                             toy_profile, estimator, opts)
        l_best = l_conf.search(32).best
        lf_best = lf_conf.search(32).best
        assert lf_best.estimated_latency_s <= l_best.estimated_latency_s + 1e-12

    def test_annealing_time_recorded(self, tiny_cluster, toy_model,
                                     tiny_network, toy_profile):
        configurator = PipetteConfigurator(
            tiny_cluster, toy_model, tiny_network.bandwidth, toy_profile,
            OracleEstimator(tiny_cluster),
            options=PipetteOptions(
                use_worker_dedication=True,
                sa=SAOptions(max_iterations=200), sa_top_k=1))
        result = configurator.search(32)
        assert result.annealing_s > 0

    def test_sa_top_k_zero_refines_everything(self, tiny_cluster, toy_model,
                                              tiny_network, toy_profile):
        configurator = PipetteConfigurator(
            tiny_cluster, toy_model, tiny_network.bandwidth, toy_profile,
            OracleEstimator(tiny_cluster),
            options=PipetteOptions(
                use_worker_dedication=True,
                sa=SAOptions(max_iterations=50), sa_top_k=0))
        result = configurator.search(32)
        assert result.best is not None

    def test_deterministic(self, tiny_cluster, toy_model, tiny_network,
                           toy_profile):
        def run():
            configurator = PipetteConfigurator(
                tiny_cluster, toy_model, tiny_network.bandwidth, toy_profile,
                OracleEstimator(tiny_cluster),
                options=PipetteOptions(
                    use_worker_dedication=True,
                    sa=SAOptions(max_iterations=300), sa_top_k=2, seed=11))
            best = configurator.search(32).best
            return best.config, best.estimated_latency_s

        assert run() == run()


class TestEstimateLatency:
    def test_default_mapping_is_sequential(self, configurator, tiny_cluster):
        config = ParallelConfig(pp=2, tp=4, dp=2, micro_batch=2,
                                global_batch=32)
        from repro.parallel import WorkerGrid, sequential_mapping
        explicit = configurator.estimate_latency(
            config, sequential_mapping(WorkerGrid(2, 4, 2), tiny_cluster))
        assert configurator.estimate_latency(config) == explicit


class TestNaiveScoring:
    def test_score_unit_matches_reference_on_mid_range_preset(self):
        """The kernel scorer equals ``pipette_latency`` bit for bit.

        Every configuration of the 16-node mid-range preset at global
        batch 256, under every registered schedule, is scored on its
        sequential mapping by both paths.
        """
        cluster = mid_range_cluster(16)
        bandwidth = NetworkProfiler().profile(
            make_fabric(cluster, seed=0), seed=0).bandwidth
        model = get_model("gpt-1.1b")
        profile = profile_compute(model, cluster)
        configurator = PipetteConfigurator(cluster, model, bandwidth,
                                           profile)
        configs = configurator.candidates(
            256, schedules=registered_schedules())
        assert len(configs) == 191
        ctx = configurator.context()
        scored = [score_unit(ctx, (c, None, True)) for c in configs]
        assert [entry.config for entry in scored] == configs
        for entry in scored:
            grid = WorkerGrid(pp=entry.config.pp, tp=entry.config.tp,
                              dp=entry.config.dp)
            assert entry.mapping == sequential_mapping(grid, cluster)
            assert entry.estimated_latency_s == pipette_latency(
                model, entry.config, entry.mapping, bandwidth, profile)
