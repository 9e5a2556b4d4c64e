"""Memory estimator: dataset building, training, prediction, margin."""

import pytest

from repro.core import MemoryEstimator, build_memory_dataset
from repro.core.memory_estimator import FEATURE_NAMES, memory_features
from repro.model import get_model
from repro.parallel import ParallelConfig
from repro.sim.memory_sim import simulated_max_memory_bytes
from repro.units import GIB, mape


@pytest.fixture(scope="module")
def tiny_cluster_mod():
    from repro.cluster.topology import ClusterSpec, GpuSpec, LinkSpec, NodeSpec
    gpu = GpuSpec(name="TestGPU", memory_bytes=4 * GIB, peak_flops=10e12,
                  achievable_fraction=0.5)
    node = NodeSpec(gpus_per_node=4, gpu=gpu,
                    intra_link=LinkSpec("L", 100.0))
    return ClusterSpec(name="tiny", n_nodes=4, node=node,
                       inter_link=LinkSpec("I", 10.0))


@pytest.fixture(scope="module")
def dataset(tiny_cluster_mod):
    return build_memory_dataset(
        tiny_cluster_mod, [get_model("gpt-toy")],
        global_batches=[8, 16, 32], node_counts=[1, 2],
        seed=0)


@pytest.fixture(scope="module")
def fitted(dataset):
    estimator = MemoryEstimator(hidden_size=48, n_hidden_layers=3, seed=0)
    estimator.fit(dataset, iterations=2500)
    return estimator


class TestFeatures:
    def test_feature_count_matches_eq7(self):
        assert len(FEATURE_NAMES) == 10

    def test_log2_space(self):
        m = get_model("gpt-toy")
        c = ParallelConfig(pp=2, tp=2, dp=4, micro_batch=2, global_batch=32)
        feats = memory_features(m, c)
        import math
        assert feats[0] == pytest.approx(math.log2(16))   # n_gpus
        assert feats[4] == pytest.approx(1.0)              # log2(tp)
        assert feats[9] == pytest.approx(5.0)              # log2(global)

    def test_explicit_gpu_count(self):
        m = get_model("gpt-toy")
        c = ParallelConfig(pp=2, tp=2, dp=4, micro_batch=2, global_batch=32)
        assert memory_features(m, c, n_gpus=16)[0] == \
            memory_features(m, c)[0]


class TestDataset:
    def test_nonempty(self, dataset):
        assert len(dataset) > 30

    def test_covers_node_counts(self, dataset):
        assert {p.n_gpus for p in dataset.points} == {4, 8}

    def test_targets_positive(self, dataset):
        assert dataset.measured_bytes().min() > 0

    def test_subsampling(self, tiny_cluster_mod):
        ds = build_memory_dataset(
            tiny_cluster_mod, [get_model("gpt-toy")], global_batches=[8],
            node_counts=[1], max_points=5, seed=0)
        assert len(ds) == 5

    def test_rejects_oversized_node_counts(self, tiny_cluster_mod):
        with pytest.raises(ValueError):
            build_memory_dataset(tiny_cluster_mod, [get_model("gpt-toy")],
                                 global_batches=[8], node_counts=[64])


class TestEstimator:
    def test_unfitted_refuses_predictions(self):
        est = MemoryEstimator()
        with pytest.raises(RuntimeError):
            est.predict_bytes(get_model("gpt-toy"),
                              ParallelConfig(1, 1, 4, 1, 8))

    def test_fit_requires_data(self):
        from repro.core.memory_dataset import MemoryDataset
        with pytest.raises(ValueError):
            MemoryEstimator().fit(MemoryDataset(points=[]))

    @pytest.mark.parametrize("hyper", [{"lr": float("nan")},
                                       {"weight_decay": float("inf")},
                                       {"iterations": 0}])
    def test_fit_refuses_bad_hyper_parameters(self, dataset, hyper):
        # A NaN learning rate used to run to early stopping and then
        # restore the untrained weights with best loss ``inf``.
        est = MemoryEstimator(hidden_size=8, n_hidden_layers=1)
        with pytest.raises(ValueError):
            est.fit(dataset, **hyper)
        with pytest.raises(RuntimeError):
            est.predict_bytes(get_model("gpt-toy"),
                              ParallelConfig(1, 1, 4, 1, 8))

    def test_rejects_bad_margin(self):
        with pytest.raises(ValueError):
            MemoryEstimator(soft_margin=0.0)
        with pytest.raises(ValueError):
            MemoryEstimator(soft_margin=1.5)

    def test_in_distribution_accuracy(self, fitted, dataset):
        points = dataset.points[:: max(1, len(dataset) // 50)]
        preds = [fitted.predict_bytes(p.model, p.config, p.n_gpus)
                 for p in points]
        actuals = [p.measured_bytes for p in points]
        assert mape(preds, actuals) < 12.0

    def test_extrapolation_beats_baseline(self, fitted, tiny_cluster_mod):
        # Trained on 1-2 nodes; predict on the 4-node cluster.  The
        # paper's claim is relative: the learned estimator must beat
        # the analytic baseline even in extrapolation.
        from repro.baselines import analytic_memory_estimate_bytes
        model = get_model("gpt-toy")
        configs = [
            ParallelConfig(pp=2, tp=4, dp=2, micro_batch=2, global_batch=16),
            ParallelConfig(pp=4, tp=2, dp=2, micro_batch=1, global_batch=8),
            ParallelConfig(pp=1, tp=4, dp=4, micro_batch=2, global_batch=32),
        ]
        actuals = [simulated_max_memory_bytes(model, c, tiny_cluster_mod,
                                              seed=99) for c in configs]
        mlp = mape([fitted.predict_bytes(model, c) for c in configs], actuals)
        base = mape([analytic_memory_estimate_bytes(model, c)
                     for c in configs], actuals)
        assert mlp < base

    def test_extrapolation_is_clipped_sane(self, fitted, tiny_cluster_mod):
        # Far outside the training range the predicted overhead ratio
        # is clamped to the observed band, so predictions stay within
        # a physically meaningful envelope of the prior.
        from repro.model.memory import first_principles_max_bytes
        model = get_model("gpt-toy")
        config = ParallelConfig(pp=4, tp=4, dp=1, micro_batch=2,
                                global_batch=64)
        pred = fitted.predict_bytes(model, config, n_gpus=1024)
        prior = first_principles_max_bytes(model, 4, 4, 2, 32)
        # For the toy model the framework overhead dominates (ratios in
        # the thousands are real); sanity means "no astronomic output".
        assert prior * 0.5 < pred < 16 * GIB

    def test_beats_analytic_baseline(self, fitted, dataset):
        from repro.baselines import analytic_memory_estimate_bytes
        points = dataset.points[:: max(1, len(dataset) // 60)]
        actuals = [p.measured_bytes for p in points]
        mlp = mape([fitted.predict_bytes(p.model, p.config, p.n_gpus)
                    for p in points], actuals)
        baseline = mape([analytic_memory_estimate_bytes(p.model, p.config)
                         for p in points], actuals)
        assert mlp < baseline / 2

    def test_is_runnable_uses_margin(self, fitted):
        model = get_model("gpt-toy")
        config = ParallelConfig(pp=2, tp=4, dp=2, micro_batch=2,
                                global_batch=16)
        predicted = fitted.predict_bytes(model, config)
        # Limit just above prediction but within the margin: rejected.
        assert not fitted.is_runnable(model, config,
                                      limit_bytes=predicted * 1.01)
        # Comfortably above the margin: accepted.
        assert fitted.is_runnable(model, config,
                                  limit_bytes=predicted * 1.2)

    def test_is_runnable_rejects_bad_limit(self, fitted):
        with pytest.raises(ValueError):
            fitted.is_runnable(get_model("gpt-toy"),
                               ParallelConfig(1, 1, 4, 1, 8),
                               limit_bytes=0)

    def test_architecture_is_papers(self):
        est = MemoryEstimator()
        assert est.network.n_layers == 5
        assert est.network.layer_sizes[1] == 200
