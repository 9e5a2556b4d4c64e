"""Pod-structured fabric model."""

import numpy as np
import pytest

from repro.cluster import Fabric, PoddedHeterogeneityModel
from repro.cluster.presets import mid_range_cluster
from repro.core.annealing import SAOptions, anneal_mapping
from repro.parallel import WorkerGrid, sequential_mapping


@pytest.fixture
def spec():
    return mid_range_cluster(n_nodes=8)


@pytest.fixture
def podded():
    return PoddedHeterogeneityModel(nodes_per_pod=4, oversubscription=2.0)


class TestPoddedModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            PoddedHeterogeneityModel(oversubscription=0.5)
        with pytest.raises(ValueError):
            PoddedHeterogeneityModel(nodes_per_pod=0)

    def test_pod_of(self, podded):
        assert podded.pod_of(0) == 0
        assert podded.pod_of(3) == 0
        assert podded.pod_of(4) == 1

    def test_n_pods_rounds_up(self, podded):
        assert podded.n_pods(mid_range_cluster(n_nodes=8)) == 2
        assert podded.n_pods(mid_range_cluster(n_nodes=5)) == 2

    def test_cross_pod_slower(self, spec, podded):
        state = podded.sample_inter_node(spec, seed=0)
        eff = state.efficiency
        intra = [eff[i, j] for i in range(4) for j in range(4) if i != j]
        cross = [eff[i, j] for i in range(4) for j in range(4, 8)]
        assert np.mean(cross) < np.mean(intra) / 1.5

    def test_composes_with_base_spread(self, spec, podded):
        # Same-pod pairs still show the base model's random spread.
        eff = podded.sample_inter_node(spec, seed=0).efficiency
        intra = [eff[i, j] for i in range(4) for j in range(4) if i != j]
        assert max(intra) / min(intra) > 1.1

    def test_oversubscription_one_matches_base(self, spec):
        from repro.cluster import HeterogeneityModel
        flat = HeterogeneityModel()
        pod1 = PoddedHeterogeneityModel(nodes_per_pod=4,
                                        oversubscription=1.0)
        a = flat.sample_inter_node(spec, seed=3).efficiency
        b = pod1.sample_inter_node(spec, seed=3).efficiency
        assert np.allclose(a, b)

    def test_fabric_integration(self, spec, podded):
        fabric = Fabric(spec, heterogeneity=podded, seed=1)
        bw = fabric.bandwidth()
        k = spec.gpus_per_node
        same_pod = bw.between(0, 1 * k)       # node 0 -> node 1
        cross_pod = bw.between(0, 5 * k)      # node 0 -> node 5
        assert cross_pod < same_pod

    def test_dedication_exploits_pods(self, spec, podded):
        # A pipeline placed across pods should be improvable by
        # pulling its chain into one pod.
        from repro.core.latency_model import pipette_latency
        from repro.model import get_model
        from repro.parallel import ParallelConfig
        from repro.profiling import profile_compute

        fabric = Fabric(spec, heterogeneity=podded, seed=5)
        model = get_model("gpt-small")
        profile = profile_compute(model, spec, noise_sigma=0.0)
        config = ParallelConfig(pp=4, tp=8, dp=2, micro_batch=2,
                                global_batch=32)
        mapping = sequential_mapping(WorkerGrid(4, 8, 2), spec)
        bw = fabric.bandwidth()
        result = anneal_mapping(
            mapping,
            lambda m: pipette_latency(model, config, m, bw, profile),
            SAOptions(max_iterations=2500, seed=2),
        )
        assert result.improvement > 0.02  # pods give real headroom
