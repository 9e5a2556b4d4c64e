"""Multi-layer perceptron with manual backpropagation."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import resolve_rng


class MLP:
    """A fully-connected ReLU network for regression.

    Args:
        layer_sizes: sizes including input and output, e.g.
            ``[10, 200, 200, 200, 200, 1]`` is the paper's five-layer,
            200-hidden-unit estimator.
        seed: weight-initialization seed (He initialization).
    """

    def __init__(self, layer_sizes: list[int], seed=0) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output size")
        if any(int(s) <= 0 for s in layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
        rng = resolve_rng(seed)
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self._cache: list[np.ndarray] = []

    @property
    def n_layers(self) -> int:
        """Number of weight layers (the paper's MLP has five)."""
        return len(self.weights)

    @property
    def n_parameters(self) -> int:
        """Total trainable scalars."""
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Predict outputs for a batch ``x`` of shape ``(n, d_in)``.

        With ``train=True`` the layer activations are cached for
        :meth:`backward`.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.layer_sizes[0]:
            raise ValueError(
                f"expected {self.layer_sizes[0]} input features, got {x.shape[1]}"
            )
        cache = [x]
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < self.n_layers - 1:
                h = np.maximum(h, 0.0)
            cache.append(h)
        if train:
            self._cache = cache
        return h

    def backward(self, grad_out: np.ndarray,
                 out: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
                 ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Backpropagate ``dLoss/dOutput``; returns (weight, bias) grads.

        Requires a preceding ``forward(..., train=True)`` call on the
        same batch.  ``out`` is an optional ``(weight grads, bias
        grads)`` pair of arrays shaped like :attr:`weights` and
        :attr:`biases`; the gradients are written into it and it is
        returned.  A training loop passes the same pair on every step:
        fresh weight-sized arrays per step cost the allocator page
        faults, not arithmetic.
        """
        if not self._cache:
            raise RuntimeError("call forward(x, train=True) before backward()")
        grad = np.atleast_2d(np.asarray(grad_out, dtype=float))
        if out is None:
            out = ([np.empty_like(w) for w in self.weights],
                   [np.empty_like(b) for b in self.biases])
        grad_w, grad_b = out
        for i in range(self.n_layers - 1, -1, -1):
            if i < self.n_layers - 1:
                # cache[i+1] holds the *post*-ReLU activation of layer i.
                grad = grad * (self._cache[i + 1] > 0.0)
            np.matmul(self._cache[i].T, grad, out=grad_w[i])
            np.sum(grad, axis=0, out=grad_b[i])
            if i > 0:
                grad = grad @ self.weights[i].T
        return out

    def parameters(self) -> list[np.ndarray]:
        """Flat list of parameter arrays (weights then biases interleaved)."""
        params = []
        for w, b in zip(self.weights, self.biases):
            params.extend((w, b))
        return params

    def state_dict(self) -> dict:
        """Serializable copy of all parameters."""
        return {
            "layer_sizes": list(self.layer_sizes),
            "weights": [w.copy() for w in self.weights],
            "biases": [b.copy() for b in self.biases],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore parameters saved by :meth:`state_dict`."""
        if list(state["layer_sizes"]) != self.layer_sizes:
            raise ValueError(
                f"architecture mismatch: {state['layer_sizes']} vs {self.layer_sizes}"
            )
        self.weights = [np.array(w, dtype=float) for w in state["weights"]]
        self.biases = [np.array(b, dtype=float) for b in state["biases"]]
