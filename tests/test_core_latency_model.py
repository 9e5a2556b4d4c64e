"""Latency models: Eq. (1) vs Eqs. (3)-(6) behaviour."""

import numpy as np
import pytest

from repro.core.latency_model import (
    LatencyModelOptions,
    latency_with_options,
    pipette_latency,
    prior_art_latency,
)
from repro.parallel import ParallelConfig, WorkerGrid, sequential_mapping


def make(config, cluster):
    grid = WorkerGrid(config.pp, config.tp, config.dp)
    return sequential_mapping(grid, cluster)


@pytest.fixture
def deep_config():
    return ParallelConfig(pp=4, tp=1, dp=4, micro_batch=2, global_batch=64)


class TestBasicProperties:
    def test_positive(self, toy_model, tiny_cluster, tiny_network,
                      toy_profile, toy_config, toy_mapping):
        t = pipette_latency(toy_model, toy_config, toy_mapping,
                            tiny_network.bandwidth, toy_profile)
        assert t > 0

    def test_deterministic(self, toy_model, tiny_network, toy_profile,
                           toy_config, toy_mapping):
        a = pipette_latency(toy_model, toy_config, toy_mapping,
                            tiny_network.bandwidth, toy_profile)
        b = pipette_latency(toy_model, toy_config, toy_mapping,
                            tiny_network.bandwidth, toy_profile)
        assert a == b

    def test_more_microbatches_cost_more(self, toy_model, tiny_cluster,
                                         tiny_network, toy_profile):
        small = ParallelConfig(pp=2, tp=4, dp=2, micro_batch=1,
                               global_batch=8)
        big = ParallelConfig(pp=2, tp=4, dp=2, micro_batch=1,
                             global_batch=64)
        m = make(small, tiny_cluster)
        a = pipette_latency(toy_model, small, m, tiny_network.bandwidth,
                            toy_profile)
        b = pipette_latency(toy_model, big, m, tiny_network.bandwidth,
                            toy_profile)
        assert b > a

    def test_recompute_costs_more(self, toy_model, tiny_cluster,
                                  tiny_network, toy_profile, deep_config):
        m = make(deep_config, tiny_cluster)
        plain = pipette_latency(toy_model, deep_config, m,
                                tiny_network.bandwidth, toy_profile)
        rc = pipette_latency(toy_model, deep_config.with_recompute(), m,
                             tiny_network.bandwidth, toy_profile)
        assert rc > plain


class TestHiddenCriticalPath:
    def test_pipette_charges_pp_comm_per_round(self, toy_model, tiny_cluster,
                                               tiny_network, toy_profile,
                                               deep_config):
        # With the same inputs, Eq. (3) must charge at least as much
        # as Eq. (1): the bubble communication recurs n_mb/pp times.
        m = make(deep_config, tiny_cluster)
        bw = tiny_network.bandwidth
        with_hidden = latency_with_options(
            toy_model, deep_config, m, bw, toy_profile,
            LatencyModelOptions(hidden_critical_path=True))
        without = latency_with_options(
            toy_model, deep_config, m, bw, toy_profile,
            LatencyModelOptions(hidden_critical_path=False))
        assert with_hidden >= without

    def test_models_agree_when_pp_is_1(self, toy_model, tiny_cluster,
                                       tiny_network, toy_profile):
        # No pipeline, no hidden path: both models reduce to
        # n_mb * (C + T_TP) + T_DP.
        config = ParallelConfig(pp=1, tp=4, dp=4, micro_batch=1,
                                global_batch=16)
        m = make(config, tiny_cluster)
        bw = tiny_network.bandwidth
        a = latency_with_options(toy_model, config, m, bw, toy_profile,
                                 LatencyModelOptions(hidden_critical_path=True))
        b = latency_with_options(toy_model, config, m, bw, toy_profile,
                                 LatencyModelOptions(hidden_critical_path=False))
        assert a == pytest.approx(b)

    def test_gap_grows_with_microbatch_count(self, toy_model, tiny_cluster,
                                             tiny_network, toy_profile):
        bw = tiny_network.bandwidth

        def gap(global_batch):
            config = ParallelConfig(pp=4, tp=1, dp=4, micro_batch=1,
                                    global_batch=global_batch)
            m = make(config, tiny_cluster)
            hid = latency_with_options(
                toy_model, config, m, bw, toy_profile,
                LatencyModelOptions(hidden_critical_path=True))
            flat = latency_with_options(
                toy_model, config, m, bw, toy_profile,
                LatencyModelOptions(hidden_critical_path=False))
            return hid - flat

        assert gap(128) > gap(16)


class TestBandwidthSensitivity:
    def test_nominal_underestimates(self, toy_model, tiny_cluster, tiny_fabric,
                                    tiny_network, toy_profile, deep_config):
        # Prior art evaluated on nominal links must estimate at most
        # the Pipette value on profiled (slower) links.
        m = make(deep_config, tiny_cluster)
        amp = prior_art_latency(toy_model, deep_config, m,
                                tiny_fabric.nominal_bandwidth(), toy_profile)
        ppt = pipette_latency(toy_model, deep_config, m,
                              tiny_network.bandwidth, toy_profile)
        assert amp < ppt

    def test_mapping_changes_pipette_estimate(self, toy_model, tiny_cluster,
                                              tiny_network, toy_profile,
                                              deep_config):
        from repro.parallel import random_block_mapping
        grid = WorkerGrid(deep_config.pp, deep_config.tp, deep_config.dp)
        bw = tiny_network.bandwidth
        values = {
            round(pipette_latency(
                toy_model, deep_config,
                random_block_mapping(grid, tiny_cluster, seed=s),
                bw, toy_profile), 12)
            for s in range(6)
        }
        assert len(values) > 1

    def test_mapping_invariant_on_uniform_matrix_without_dp(self, toy_model,
                                                            tiny_cluster,
                                                            toy_profile):
        # On a fully uniform matrix and with no data parallelism (the
        # hierarchical DP ring is topology-aware even at equal speeds),
        # placement cannot matter.
        from repro.cluster.fabric import BandwidthMatrix
        from repro.parallel import random_block_mapping
        n = tiny_cluster.n_gpus
        uniform = BandwidthMatrix(matrix=np.full((n, n), 25.0),
                                  alpha=np.zeros((n, n)))
        config = ParallelConfig(pp=4, tp=4, dp=1, micro_batch=2,
                                global_batch=8)
        grid = WorkerGrid(config.pp, config.tp, config.dp)
        values = {
            round(prior_art_latency(
                toy_model, config,
                random_block_mapping(grid, tiny_cluster, seed=s),
                uniform, toy_profile), 12)
            for s in range(4)
        }
        assert len(values) == 1


class TestDpTerm:
    def test_dp1_has_no_dp_cost(self, toy_model, tiny_cluster, tiny_network,
                                toy_profile):
        config = ParallelConfig(pp=4, tp=4, dp=1, micro_batch=1,
                                global_batch=8)
        m = make(config, tiny_cluster)
        base = pipette_latency(toy_model, config, m, tiny_network.bandwidth,
                               toy_profile)
        assert base > 0  # smoke: just exercising the dp == 1 branch

    def test_collective_efficiency_scales_dp(self, toy_model, tiny_cluster,
                                             tiny_network, toy_profile):
        config = ParallelConfig(pp=2, tp=1, dp=8, micro_batch=1,
                                global_batch=64)
        m = make(config, tiny_cluster)
        bw = tiny_network.bandwidth
        fast = latency_with_options(
            toy_model, config, m, bw, toy_profile,
            LatencyModelOptions(collective_efficiency=1.0))
        slow = latency_with_options(
            toy_model, config, m, bw, toy_profile,
            LatencyModelOptions(collective_efficiency=0.5))
        assert slow > fast

    @pytest.mark.parametrize("eff", [float("nan"), 0.0, -0.5,
                                     float("inf"), 1.5, True, "0.9",
                                     None])
    def test_unusable_collective_efficiency_is_refused(self, eff):
        """The DP term is divided by it: NaN poisoned the search, 0
        divided by zero, -0.5 subtracted the term, inf erased it."""
        with pytest.raises(ValueError, match="collective_efficiency"):
            LatencyModelOptions(collective_efficiency=eff)

    @pytest.mark.parametrize("eff", [1.0, 0.88, 0.7, 0.5, 1,
                                     np.float64(0.88)])
    def test_usable_collective_efficiency_is_kept(self, eff):
        assert LatencyModelOptions(
            collective_efficiency=eff).collective_efficiency == eff

    def test_exposure_aware_at_least_stage0(self, toy_model, tiny_cluster,
                                            tiny_network, toy_profile):
        config = ParallelConfig(pp=2, tp=1, dp=8, micro_batch=1,
                                global_batch=64)
        m = make(config, tiny_cluster)
        bw = tiny_network.bandwidth
        literal = latency_with_options(
            toy_model, config, m, bw, toy_profile,
            LatencyModelOptions(dp_exposure_aware=False))
        aware = latency_with_options(
            toy_model, config, m, bw, toy_profile,
            LatencyModelOptions(dp_exposure_aware=True))
        assert aware >= literal
