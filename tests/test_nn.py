"""NumPy NN stack: MLP, backprop, optimizers, scaler, training loop."""

import numpy as np
import pytest

from repro.nn import MLP, Adam, SGD, StandardScaler, train_regressor


class TestMLPStructure:
    def test_paper_architecture(self):
        net = MLP([10, 200, 200, 200, 200, 1])
        assert net.n_layers == 5

    def test_parameter_count(self):
        net = MLP([3, 4, 2])
        assert net.n_parameters == (3 * 4 + 4) + (4 * 2 + 2)

    def test_rejects_single_layer(self):
        with pytest.raises(ValueError):
            MLP([5])

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            MLP([3, 0, 1])

    def test_forward_shape(self):
        net = MLP([3, 8, 2])
        out = net.forward(np.zeros((5, 3)))
        assert out.shape == (5, 2)

    def test_forward_rejects_wrong_features(self):
        net = MLP([3, 8, 2])
        with pytest.raises(ValueError):
            net.forward(np.zeros((5, 4)))

    def test_init_deterministic(self):
        a = MLP([3, 8, 1], seed=7).forward(np.ones((1, 3)))
        b = MLP([3, 8, 1], seed=7).forward(np.ones((1, 3)))
        assert np.array_equal(a, b)

    def test_state_dict_roundtrip(self):
        net = MLP([3, 8, 1], seed=1)
        x = np.random.default_rng(0).normal(size=(4, 3))
        before = net.forward(x)
        state = net.state_dict()
        other = MLP([3, 8, 1], seed=99)
        other.load_state_dict(state)
        assert np.allclose(other.forward(x), before)

    def test_load_rejects_mismatched_arch(self):
        net = MLP([3, 8, 1])
        with pytest.raises(ValueError):
            MLP([3, 4, 1]).load_state_dict(net.state_dict())


class TestBackprop:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        net = MLP([4, 6, 5, 1], seed=3)
        x = rng.normal(size=(7, 4))
        y = rng.normal(size=(7, 1))

        def loss():
            return float(np.mean((net.forward(x) - y) ** 2))

        pred = net.forward(x, train=True)
        grad_out = 2.0 * (pred - y) / x.shape[0]
        grad_w, grad_b = net.backward(grad_out)

        eps = 1e-6
        for layer in range(net.n_layers):
            w = net.weights[layer]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                original = w[idx]
                w[idx] = original + eps
                up = loss()
                w[idx] = original - eps
                down = loss()
                w[idx] = original
                numeric = (up - down) / (2 * eps)
                assert grad_w[layer][idx] == pytest.approx(numeric, rel=1e-3,
                                                           abs=1e-7)

    def test_backward_requires_train_forward(self):
        net = MLP([2, 3, 1])
        net.forward(np.zeros((1, 2)))  # train=False
        net._cache = []
        with pytest.raises(RuntimeError):
            net.backward(np.zeros((1, 1)))


class TestOptimizers:
    def _quadratic_steps(self, optimizer_cls, **kwargs):
        # Minimize (p - 3)^2 starting from 0.
        p = np.array([0.0])
        opt = optimizer_cls([p], **kwargs)
        for _ in range(500):
            grad = 2 * (p - 3.0)
            opt.step([grad])
        return p[0]

    def test_sgd_converges(self):
        assert self._quadratic_steps(SGD, lr=0.05) == pytest.approx(3.0, abs=1e-3)

    def test_sgd_momentum_converges(self):
        assert self._quadratic_steps(SGD, lr=0.02, momentum=0.9) \
            == pytest.approx(3.0, abs=1e-3)

    def test_adam_converges(self):
        assert self._quadratic_steps(Adam, lr=0.05) == pytest.approx(3.0, abs=1e-2)

    def test_adam_weight_decay_shrinks_solution(self):
        no_decay = self._quadratic_steps(Adam, lr=0.05, weight_decay=0.0)
        decayed = self._quadratic_steps(Adam, lr=0.05, weight_decay=0.5)
        assert decayed < no_decay

    def test_grad_count_checked(self):
        p = np.zeros(2)
        opt = Adam([p])
        with pytest.raises(ValueError):
            opt.step([np.zeros(2), np.zeros(2)])

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            Adam([np.zeros(1)], lr=0.0)
        with pytest.raises(ValueError):
            SGD([np.zeros(1)], lr=-1.0)

    @pytest.mark.parametrize("optimizer_cls", [Adam, SGD])
    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_rejects_non_finite_lr(self, optimizer_cls, lr):
        # ``nan <= 0`` is false, so a bare sign test lets NaN through.
        with pytest.raises(ValueError, match="learning rate"):
            optimizer_cls([np.zeros(1)], lr=lr)

    @pytest.mark.parametrize("field", ["weight_decay", "eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_adam_rejects_bad_weight_decay_and_eps(self, field, value):
        with pytest.raises(ValueError, match=field):
            Adam([np.zeros(1)], **{field: value})

    def test_adam_rejects_nan_betas(self):
        with pytest.raises(ValueError, match="betas"):
            Adam([np.zeros(1)], beta1=float("nan"))
        with pytest.raises(ValueError, match="betas"):
            Adam([np.zeros(1)], beta2=float("nan"))


class TestScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, size=(200, 4))
        z = StandardScaler().fit_transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_safe(self):
        x = np.ones((10, 2))
        z = StandardScaler().fit_transform(x)
        assert np.all(np.isfinite(z))

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 3))
        s = StandardScaler().fit(x)
        assert np.allclose(s.inverse_transform(s.transform(x)), x)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((1, 2)))


class TestTrainRegressor:
    def test_learns_linear_function(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(400, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + 0.3
        net = MLP([3, 32, 32, 1], seed=0)
        train_regressor(net, x, y, iterations=3000, lr=1e-2, seed=0)
        pred = net.forward(x).ravel()
        rmse = float(np.sqrt(np.mean((pred - y) ** 2)))
        assert rmse < 0.15

    def test_early_stopping_restores_best(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 2))
        y = x.sum(axis=1)
        net = MLP([2, 16, 1], seed=0)
        result = train_regressor(net, x, y, iterations=50_000, patience=3,
                                 eval_every=50, seed=0)
        assert result.iterations_run < 50_000
        assert result.history

    def test_shape_checks(self):
        net = MLP([2, 4, 1])
        with pytest.raises(ValueError):
            train_regressor(net, np.zeros((3, 2)), np.zeros(4))

    def test_needs_two_samples(self):
        net = MLP([2, 4, 1])
        with pytest.raises(ValueError):
            train_regressor(net, np.zeros((1, 2)), np.zeros(1))

    @pytest.mark.parametrize("field", ["iterations", "batch_size",
                                       "patience", "eval_every"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_loop_arguments_below_one(self, field, value):
        net = MLP([2, 4, 1], seed=0)
        before = net.state_dict()
        with pytest.raises(ValueError, match=field):
            train_regressor(net, np.zeros((10, 2)), np.zeros(10),
                            **{field: value})
        # Refused before any step: the weights are untouched.
        assert all(np.array_equal(a, b) for a, b in
                   zip(net.weights, before["weights"]))

    @pytest.mark.parametrize("field", ["iterations", "batch_size",
                                       "patience", "eval_every"])
    @pytest.mark.parametrize("value", [True, 2.0, "3"])
    def test_rejects_non_int_loop_arguments(self, field, value):
        with pytest.raises(TypeError, match=field):
            train_regressor(MLP([2, 4, 1]), np.zeros((10, 2)), np.zeros(10),
                            **{field: value})

    def test_accepts_numpy_int_loop_arguments(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 2))
        result = train_regressor(MLP([2, 4, 1], seed=0), x, x.sum(axis=1),
                                 iterations=np.int64(10),
                                 eval_every=np.int32(5))
        assert result.iterations_run == 10 and len(result.history) == 2

    def test_rejects_nan_lr_before_training(self):
        net = MLP([2, 4, 1], seed=0)
        with pytest.raises(ValueError, match="learning rate"):
            train_regressor(net, np.zeros((10, 2)), np.zeros(10),
                            lr=float("nan"))

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 2))
        y = x.sum(axis=1)

        def run():
            net = MLP([2, 8, 1], seed=1)
            train_regressor(net, x, y, iterations=300, seed=5)
            return net.forward(x)

        assert np.allclose(run(), run())
