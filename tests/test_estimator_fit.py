"""The in-place estimator fit: Adam against its oracle, and a golden fit.

:class:`repro.nn.optim.Adam` updates its moments and parameters in
place, and ``train_regressor`` hands ``MLP.backward`` the same
gradient buffers on every step; ``tests/adam_oracle.py`` keeps the
allocating step Adam replaced.  Each must agree bit for bit with what
it replaced.  The golden literals
below were recorded from the allocating implementation (fresh Adam
temporaries, zero-filled gradient lists in ``MLP.backward``, instruction
streams rebuilt per configuration): they pin the whole fit — dataset,
backprop and optimizer — and must never move unless the estimator's
training contract is deliberately changed.  The matrix products go
through NumPy's BLAS, so the literals hold for a given BLAS kernel
(recorded with OpenBLAS on x86-64).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from adam_oracle import ReferenceAdam
from repro.cluster.presets import mid_range_cluster
from repro.core import MemoryEstimator, build_memory_dataset
from repro.model import get_model
from repro.nn import MLP, Adam
from repro.parallel import ParallelConfig


def _params(seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(7, 5)), rng.normal(size=5),
            rng.normal(size=(5, 1)), rng.normal(size=1)]


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3, 0.5])
def test_adam_matches_reference_bit_for_bit(weight_decay):
    fast_params, ref_params = _params(0), _params(0)
    fast = Adam(fast_params, lr=3e-3, weight_decay=weight_decay)
    ref = ReferenceAdam(ref_params, lr=3e-3, weight_decay=weight_decay)
    rng = np.random.default_rng(1)
    for _ in range(200):
        # Gradients spanning many magnitudes, signs and an exact zero.
        grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-8, 3)
                 for p in fast_params]
        grads[1][0] = 0.0
        fast.step(grads)
        ref.step(grads)
        for a, b in zip(fast_params, ref_params):
            assert np.array_equal(a, b)
    for a, b in zip(fast._m + fast._v, ref._m + ref._v):
        assert np.array_equal(a, b)


def test_mlp_training_matches_reference_adam():
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(32, 4)), rng.normal(size=(32, 1))
    fast_net, ref_net = MLP([4, 16, 16, 1], seed=5), MLP([4, 16, 16, 1], seed=5)
    fast = Adam(fast_net.parameters(), lr=1e-2, weight_decay=1e-3)
    ref = ReferenceAdam(ref_net.parameters(), lr=1e-2, weight_decay=1e-3)
    for net, opt in ((fast_net, fast), (ref_net, ref)):
        for _ in range(50):
            pred = net.forward(x, train=True)
            grad_w, grad_b = net.backward(2.0 * (pred - y) / x.shape[0])
            opt.step([g for pair in zip(grad_w, grad_b) for g in pair])
    for a, b in zip(fast_net.parameters(), ref_net.parameters()):
        assert np.array_equal(a, b)


def test_golden_estimator_fit():
    dataset = build_memory_dataset(
        mid_range_cluster(2), [get_model("gpt-toy"), get_model("gpt-small")],
        global_batches=[32, 64], node_counts=[1, 2], seed=3)
    assert len(dataset) == 332
    estimator = MemoryEstimator(seed=4)
    result = estimator.fit(dataset, iterations=300)
    assert result.iterations_run == 300
    assert result.best_validation_loss.hex() == "0x1.81e10bf440106p-6"
    assert [v.hex() for v in estimator._ratio_bounds] == \
        ["-0x1.a1c9b63654bcep-3", "0x1.82fabfd4cfdedp+3"]
    small = get_model("gpt-small")
    cases = [
        (small, ParallelConfig(pp=2, tp=4, dp=2, micro_batch=2,
                               global_batch=64),
         "0x1.1d80a7cea9bcfp+31"),
        (small, ParallelConfig(pp=4, tp=2, dp=4, micro_batch=1,
                               global_batch=128, schedule="gpipe"),
         "0x1.10a02e5f08ee8p+35"),
        (small, ParallelConfig(pp=4, tp=8, dp=4, micro_batch=4,
                               global_batch=256,
                               schedule="interleaved_1f1b"),
         "0x1.548b31ed5cca4p+39"),
        (get_model("gpt-1.1b"), ParallelConfig(pp=8, tp=4, dp=4,
                                               micro_batch=2,
                                               global_batch=512),
         "0x1.2700a1ef3de9ep+39"),
    ]
    assert [estimator.predict_bytes(m, c).hex() for m, c, _ in cases] == \
        [expected for _, _, expected in cases]
    digest = hashlib.sha256()
    for member in estimator.networks:
        for w, b in zip(member.weights, member.biases):
            digest.update(w.tobytes())
            digest.update(b.tobytes())
    assert digest.hexdigest() == \
        "9e3f9349df3273d87343049b1d6f5b71eb0248f720d308f81259269ab6b6c452"


def test_backward_into_reused_buffers_matches_allocating_products():
    rng = np.random.default_rng(6)
    net = MLP([4, 16, 8, 1], seed=7)
    out = ([np.empty_like(w) for w in net.weights],
           [np.empty_like(b) for b in net.biases])
    for _ in range(3):
        x, g = rng.normal(size=(9, 4)), rng.normal(size=(9, 1))
        net.forward(x, train=True)
        fresh_w, fresh_b = net.backward(g)
        grad_w, grad_b = net.backward(g, out=out)
        assert grad_w is out[0] and grad_b is out[1]
        assert all(np.array_equal(a, b) for a, b in
                   zip(fresh_w + fresh_b, grad_w + grad_b))
        # The allocating backward pass the buffers replaced.
        acts = [x]
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            h = acts[-1] @ w + b
            acts.append(np.maximum(h, 0.0) if i < net.n_layers - 1 else h)
        grad = g
        for i in range(net.n_layers - 1, -1, -1):
            if i < net.n_layers - 1:
                grad = grad * (acts[i + 1] > 0.0)
            assert np.array_equal(grad_w[i], acts[i].T @ grad)
            assert np.array_equal(grad_b[i], grad.sum(axis=0))
            grad = grad @ net.weights[i].T
