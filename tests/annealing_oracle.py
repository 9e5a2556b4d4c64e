"""Executable specification of the annealer, kept for the test suite.

:func:`anneal_mapping_reference` is the pre-kernel ``SA_NextMap`` loop
of Algorithm 1: one ``Mapping`` per proposal, one ``perf_counter`` per
move, the copy-returning :func:`propose`, and every draw a call on a
``np.random.Generator`` (:func:`propose_into`).  The seed-identity
tests and ``benchmarks/bench_annealing_kernel.py`` pin
:func:`repro.core.annealing.anneal_mapping`, whose draws come from a
:class:`repro.utils.rng.DrawStream`, against it.
:func:`apply_move` is the RNG-free twin of the move set, for tests that
name a move rather than draw one.

Nothing in ``repro`` imports this module; benchmarks put ``tests/`` on
``sys.path`` to reach it.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from repro.core.annealing import (
    TEMPERATURE_PROBES,
    SAOptions,
    SAResult,
    _degenerate_result,
    _temperature_from_spread,
)
from repro.parallel.mapping import Mapping
from repro.utils.rng import resolve_rng


def propose_into(out: np.ndarray, perm: np.ndarray, move: str,
                 rng: np.random.Generator) -> None:
    """Apply one move of ``perm`` into ``out``, drawing from ``rng``.

    The reference proposal: the same moves as
    :func:`repro.core.annealing._propose_into`, with every draw a
    ``Generator`` call.
    """
    n = len(perm)
    out[:] = perm
    if n < 2:
        return
    if move == "swap":
        i, j = rng.choice(n, size=2, replace=False)
        out[i], out[j] = perm[j], perm[i]
    elif move == "migrate":
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            out[i:j] = perm[i + 1:j + 1]
        else:
            out[j + 1:i + 1] = perm[j:i]
        out[j] = perm[i]
    elif move == "reverse":
        i, j = sorted(rng.choice(n + 1, size=2, replace=False))
        if j - i >= 2:
            out[i:j] = perm[i:j][::-1]
        else:
            i2, j2 = rng.choice(n, size=2, replace=False)
            out[i2], out[j2] = perm[j2], perm[i2]
    else:
        raise ValueError(f"unknown move {move!r}")


def propose(perm: np.ndarray, move: str, rng: np.random.Generator) -> np.ndarray:
    """Apply one move to a copy of the permutation (allocating form)."""
    out = np.empty_like(perm)
    propose_into(out, perm, move, rng)
    return out


def apply_move(perm: np.ndarray, move: "tuple[str, int, int]") -> np.ndarray:
    """Apply a deterministic ``(kind, i, j)`` move spec to a copy of ``perm``.

    Same index semantics as :func:`repro.core.annealing._propose_into`:

    * ``("swap", i, j)`` — exchange positions ``i`` and ``j``;
    * ``("migrate", i, j)`` — remove the element at ``i``, reinsert it
      at position ``j`` of the shortened string (``0 <= j <= n - 2``);
    * ``("reverse", i, j)`` — reverse the substring ``[i, j)``, which
      needs ``j - i >= 2`` (the RNG form's degenerate-window fallback
      draws fresh indices and has no deterministic counterpart).
    """
    kind, i, j = move
    perm = np.asarray(perm)
    n = len(perm)
    i, j = int(i), int(j)
    out = perm.copy()
    if kind == "swap":
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"swap indices ({i}, {j}) outside [0, {n})")
        out[i], out[j] = perm[j], perm[i]
    elif kind == "migrate":
        if not (0 <= i < n and 0 <= j < n - 1):
            raise ValueError(
                f"migrate needs 0 <= i < {n} and 0 <= j < {n - 1}, "
                f"got ({i}, {j})")
        if j >= i:
            out[i:j] = perm[i + 1:j + 1]
        else:
            out[j + 1:i + 1] = perm[j:i]
        out[j] = perm[i]
    elif kind == "reverse":
        if not (0 <= i and i + 2 <= j <= n):
            raise ValueError(
                f"reverse needs 0 <= i <= j - 2 <= {n - 2}, got ({i}, {j})")
        out[i:j] = perm[i:j][::-1]
    else:
        raise ValueError(f"unknown move kind {kind!r}")
    return out


def probe_temperature(initial: Mapping, objective, base: float,
                      moves: tuple[str, ...],
                      rng: np.random.Generator) -> float:
    """Derive a starting temperature from the local objective landscape."""
    deltas = []
    for _ in range(TEMPERATURE_PROBES):
        move = moves[int(rng.integers(len(moves)))]
        cand = initial.with_block_permutation(
            propose(initial.block_to_slot, move, rng))
        deltas.append(abs(objective(cand) - base))
    return _temperature_from_spread(deltas, base)


def anneal_mapping_reference(initial: Mapping,
                             objective: Callable[[Mapping], float],
                             options: SAOptions | None = None,
                             recorder=None) -> SAResult:
    """The pre-kernel annealing loop.

    Same seed → same RNG stream, accept/reject trajectory, best mapping
    and value as :func:`repro.core.annealing.anneal_mapping`; it never
    collects a portfolio.
    """
    options = options or SAOptions()
    rng = resolve_rng(options.seed)
    start = time.perf_counter()

    current = initial.copy()
    current_value = float(objective(current))
    initial_value = current_value
    best = current.copy()
    best_value = current_value
    history = [best_value]
    setup_evaluations = 1

    if initial.grid.n_blocks < 2:
        # Mirrors the fast loop exactly (same guard, same result
        # fields) so the seed-identity contract holds on degenerate
        # grids too — except the portfolio, which this loop never
        # collects.
        result = _degenerate_result(initial, current_value, start, recorder,
                                    options.portfolio_k)
        result.portfolio = []
        return result

    temperature = options.initial_temperature
    if temperature is None:
        temperature = probe_temperature(initial, objective, current_value,
                                        options.moves, rng)
        setup_evaluations += TEMPERATURE_PROBES

    if recorder is not None:
        recorder.start(initial_value, evaluations=setup_evaluations)

    iterations = accepted = 0
    exit_reason = "iteration_budget"
    while True:
        if options.max_iterations is not None \
                and iterations >= options.max_iterations:
            break
        if options.time_limit_s is not None \
                and time.perf_counter() - start >= options.time_limit_s:
            exit_reason = "time_limit"
            break
        move = options.moves[int(rng.integers(len(options.moves)))]
        candidate = current.with_block_permutation(
            propose(current.block_to_slot, move, rng))
        value = float(objective(candidate))
        delta = value - current_value
        accepted_move = delta <= 0.0 or (
            temperature > 0.0
            and rng.random() < math.exp(-delta / temperature))
        if accepted_move:
            current, current_value = candidate, value
            accepted += 1
            if value < best_value:
                best, best_value = candidate.copy(), value
                history.append(best_value)
        if recorder is not None:
            recorder.sample(iterations, temperature, best_value,
                            accepted_move)
        temperature *= options.alpha
        iterations += 1

    if recorder is not None:
        recorder.finish(exit_reason, best_value)
    return SAResult(
        mapping=best,
        value=best_value,
        initial_value=initial_value,
        iterations=iterations,
        accepted=accepted,
        elapsed_s=time.perf_counter() - start,
        history=history,
        evaluations=setup_evaluations + iterations,
        exit_reason=exit_reason,
    )
