"""First-order optimizers for the NumPy MLP."""

from __future__ import annotations

import math

import numpy as np


def _check_finite(value, name: str, positive: bool = False) -> None:
    """Refuse a NaN, infinite or out-of-range hyper-parameter.

    A bare ``value <= 0`` test lets NaN through (every comparison with
    NaN is false), and a NaN learning rate trains nothing without an
    error.
    """
    if not math.isfinite(value) or (value <= 0 if positive else value < 0):
        bound = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be a finite {bound} number, "
                         f"got {value!r}")


class SGD:
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(self, params: list[np.ndarray], lr: float = 1e-2,
                 momentum: float = 0.0) -> None:
        _check_finite(lr, "learning rate", positive=True)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {momentum}")
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        """Apply one update from gradients aligned with ``params``."""
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} grads, got {len(grads)}")
        for p, g, v in zip(self.params, grads, self._velocity):
            v *= self.momentum
            v += g
            p -= self.lr * v


class Adam:
    """Adam optimizer (Kingma & Ba 2015), the standard for small MLPs.

    ``weight_decay`` applies decoupled (AdamW-style) decay.  For the
    memory estimator this is what keeps the network's extrapolation
    tails tame: the profiled training data stops at 32 GPUs while
    predictions are needed at 128, and undecayed ReLU nets pick up
    spurious slopes that explode outside the training range.

    :meth:`step` updates the moments and the parameters in place
    through two scratch buffers per parameter, allocated once here, so
    a step allocates nothing.  Each element still sees exactly the
    textbook operation sequence, in this order (``c1``/``c2`` are the
    bias corrections)::

        m = b1*m + (1-b1)*g
        v = b2*v + ((1-b2)*g)*g
        p -= (lr*wd)*p                          # only when wd > 0
        p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)

    so the trained weights are bit-identical to an allocating
    implementation of the same formulas.
    """

    def __init__(self, params: list[np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        _check_finite(lr, "learning rate", positive=True)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must lie in [0, 1)")
        _check_finite(eps, "eps")
        _check_finite(weight_decay, "weight_decay")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p) for p in params]
        self._v = [np.zeros_like(p) for p in params]
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self._t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        """Apply one Adam update from gradients aligned with ``params``."""
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} grads, got {len(grads)}")
        self._t += 1
        b1, b2, lr = self.beta1, self.beta2, self.lr
        correction1 = 1.0 - b1 ** self._t
        correction2 = 1.0 - b2 ** self._t
        decay = lr * self.weight_decay
        for p, g, m, v, (s, t) in zip(self.params, grads, self._m, self._v,
                                      self._scratch):
            m *= b1
            np.multiply(g, 1.0 - b1, out=s)
            m += s
            v *= b2
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v += s
            if self.weight_decay > 0.0:
                np.multiply(p, decay, out=s)
                p -= s
            np.divide(m, correction1, out=s)
            s *= lr
            np.divide(v, correction2, out=t)
            np.sqrt(t, out=t)
            t += self.eps
            s /= t
            p -= s
