"""Executable specification of Adam, kept for the test suite.

:class:`ReferenceAdam` is the allocating Adam step the memory
estimator was first trained with: every term is a fresh temporary.
:class:`repro.nn.optim.Adam` computes the same formulas in place, in
the same operation order, and ``tests/test_estimator_fit.py`` pins
it against this class bit for bit.

Nothing in ``repro`` imports this module.
"""

from __future__ import annotations

import numpy as np


class ReferenceAdam:
    """Adam with decoupled weight decay, one temporary per term."""

    def __init__(self, params: list[np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p) for p in params]
        self._v = [np.zeros_like(p) for p in params]
        self._t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        """Apply one Adam update from gradients aligned with ``params``."""
        self._t += 1
        correction1 = 1.0 - self.beta1 ** self._t
        correction2 = 1.0 - self.beta2 ** self._t
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / correction1
            v_hat = v / correction2
            if self.weight_decay > 0.0:
                p -= self.lr * self.weight_decay * p
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
