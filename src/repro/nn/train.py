"""Minibatch training loop for MLP regression."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.mlp import MLP
from repro.nn.optim import Adam
from repro.utils.rng import resolve_rng


@dataclass
class TrainResult:
    """Training-run summary.

    Attributes:
        iterations_run: optimizer steps actually taken (early stopping
            can end before the budget).
        best_validation_loss: lowest validation MSE seen.
        history: validation MSE per evaluation point.
    """

    iterations_run: int
    best_validation_loss: float
    history: list[float] = field(default_factory=list)


def train_regressor(model: MLP, x: np.ndarray, y: np.ndarray,
                    iterations: int = 50_000, batch_size: int = 64,
                    lr: float = 1e-3, weight_decay: float = 0.0,
                    validation_fraction: float = 0.1,
                    patience: int = 40, eval_every: int = 100,
                    seed=0) -> TrainResult:
    """Train ``model`` to regress ``y`` on ``x`` with Adam + MSE.

    The paper trains its estimator for 50k iterations; early stopping
    on a held-out split keeps reproduction runs fast without changing
    the protocol (``patience`` evaluations without improvement, model
    restored to its best point).

    Args:
        x: feature matrix ``(n, d)`` (pre-scaled by the caller).
        y: targets ``(n,)`` or ``(n, k)``.
        validation_fraction: share of rows held out for early stopping;
            0 disables early stopping.

    Raises:
        TypeError: a loop argument (``iterations``, ``batch_size``,
            ``patience``, ``eval_every``) is not an int.
        ValueError: a loop argument is below 1, the shapes disagree,
            or a hyper-parameter is not finite (from :class:`Adam`).
    """
    loop = {"iterations": iterations, "batch_size": batch_size,
            "patience": patience, "eval_every": eval_every}
    for name, value in loop.items():
        # ``batch_size=0`` would train on empty batches, ``eval_every=0``
        # divide by zero, and ``iterations=0`` return without a loss.
        if isinstance(value, bool) \
                or not isinstance(value, (int, np.integer)):
            raise TypeError(
                f"{name} must be an int, got {type(value).__name__}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"{x.shape[0]} samples but {y.shape[0]} targets")
    if x.shape[0] < 2:
        raise ValueError("need at least two samples to train")
    if not 0.0 <= validation_fraction < 1.0:
        raise ValueError("validation_fraction must lie in [0, 1)")

    rng = resolve_rng(seed)
    order = rng.permutation(x.shape[0])
    n_val = int(round(validation_fraction * x.shape[0]))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation split leaves no training data")
    x_train, y_train = x[train_idx], y[train_idx]
    x_val, y_val = x[val_idx], y[val_idx]

    optimizer = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
    # One gradient buffer per parameter, written by every backward pass.
    grad_w = [np.empty_like(w) for w in model.weights]
    grad_b = [np.empty_like(b) for b in model.biases]
    grads = [g for pair in zip(grad_w, grad_b) for g in pair]
    best_val = float("inf")
    best_state = model.state_dict()
    history: list[float] = []
    since_best = 0
    batch = min(batch_size, x_train.shape[0])

    it = 0
    for it in range(1, iterations + 1):
        pick = rng.integers(0, x_train.shape[0], size=batch)
        xb, yb = x_train[pick], y_train[pick]
        pred = model.forward(xb, train=True)
        grad_out = 2.0 * (pred - yb) / xb.shape[0]
        model.backward(grad_out, out=(grad_w, grad_b))
        optimizer.step(grads)

        if n_val > 0 and it % eval_every == 0:
            val_pred = model.forward(x_val)
            val_loss = float(np.mean((val_pred - y_val) ** 2))
            history.append(val_loss)
            if val_loss < best_val - 1e-12:
                best_val = val_loss
                best_state = model.state_dict()
                since_best = 0
            else:
                since_best += 1
                if since_best >= patience:
                    break

    if n_val > 0:
        model.load_state_dict(best_state)
    else:
        pred = model.forward(x)
        best_val = float(np.mean((pred - y) ** 2))
    return TrainResult(iterations_run=it, best_validation_loss=best_val,
                       history=history)
