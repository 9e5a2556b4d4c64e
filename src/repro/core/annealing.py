"""Fine-grained worker dedication via simulated annealing (§IV).

The mapping problem — place ``pp x tp x dp`` logical workers on the
GPUs so the estimated iteration latency is minimal — is analogous to
classic NoC core mapping ([17], [18]), so the paper uses simulated
annealing with three string moves:

* **migrate**: remove one element and reinsert it elsewhere,
* **swap**: exchange two elements,
* **reverse**: reverse a substring — motivated by the observation
  that bidirectional bandwidths of a node pair are almost symmetric,
  so a reversed pipeline segment costs about the same per hop while
  changing which links carry the boundary traffic.

The annealer works on the *block* permutation (TP groups over GPU
slots; see :mod:`repro.parallel.mapping`), uses the temperature decay
``alpha = 0.999`` of the paper, and stops on an iteration budget or a
wall-clock limit (the paper uses 10 s per candidate configuration).

The loop itself operates on raw permutation arrays: moves are proposed
into a reusable scratch buffer (no ``np.delete``/``np.insert``
allocation pair per proposal) and a :class:`Mapping` is materialized
only for the returned best.  When the objective is a
:class:`~repro.core.latency_kernel.LatencyKernel` (anything exposing
``evaluate_perm``), every proposal is a full re-score through the
kernel and no ``Mapping`` is ever built inside the loop; a plain
``Callable[[Mapping], float]`` objective still works and sees one
mapping per evaluation.  Either way the draws and the floating-point
trajectory are identical to the pre-kernel loop, which the test suite
keeps as an executable specification (``tests/annealing_oracle.py``).

**The draw contract.** Every draw — the move kind, the move's
indices, the Metropolis coin — comes from a
:class:`~repro.utils.rng.DrawStream` seeded with ``SAOptions.seed``.
It serves the values the reference loop's ``np.random.Generator``
calls return (``integers(k)``, ``choice(n, 2, replace=False)``,
``random()``), computed in Python from blocks of raw PCG64 output under
NumPy's rules: 32-bit draws split a 64-bit output low half first,
``integers`` is Lemire's rejection method and draws nothing for
``k == 1``, ``random()`` is ``(u64 >> 11) * 2**-53``, and a pair is
Floyd's two draws plus a one-step shuffle.  A seeded plan thus depends
only on PCG64's raw output and those rules, and a proposal costs about
2 µs instead of about 9 µs of ``Generator`` dispatch.

The loop can additionally collect a **portfolio** — the
``portfolio_k`` best *distinct* states visited — as pure bookkeeping on
accepted moves: no extra objective calls, no RNG draws.  Elastic
re-planning warm-starts from these survivors
(:mod:`repro.service.replan`).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.parallel.mapping import Mapping
from repro.utils.rng import DrawStream

#: The paper's move set.
DEFAULT_MOVES: tuple[str, ...] = ("migrate", "swap", "reverse")

#: The wall-clock budget is polled once per this many iterations; with
#: the vectorized kernel an objective call is microseconds, so paying a
#: ``perf_counter`` syscall per move would be measurable overhead.
TIME_CHECK_INTERVAL: int = 32


@dataclass(frozen=True)
class SAOptions:
    """Simulated-annealing hyper-parameters.

    Attributes:
        time_limit_s: wall-clock budget; ``None`` disables it.  The
            paper uses 10 seconds.  The clock is polled every
            :data:`TIME_CHECK_INTERVAL` iterations, so runs overshoot
            the limit by at most that many moves.
        max_iterations: iteration budget; ``None`` disables it.  At
            least one of the two budgets must be set.
        alpha: multiplicative temperature decay per iteration (0.999
            in the paper).
        initial_temperature: starting temperature; ``None`` derives it
            from the spread of a few probe moves so acceptance starts
            permissive regardless of the objective's scale.  A given
            value must be a finite number >= 0; ``0.0`` anneals as
            greedy descent.
        moves: subset of ``{"migrate", "swap", "reverse"}`` (ablations
            disable individual moves).
        seed: integer seed of the move stream (a
            :class:`~repro.utils.rng.DrawStream`).
        portfolio_k: distinct best-visited states carried on
            :attr:`SAResult.portfolio` (``1`` keeps only the best; the
            collection itself never perturbs the search).
    """

    time_limit_s: float | None = None
    max_iterations: int | None = 4000
    alpha: float = 0.999
    initial_temperature: float | None = None
    moves: tuple[str, ...] = DEFAULT_MOVES
    seed: int = 0
    portfolio_k: int = 1

    def __post_init__(self) -> None:
        if self.time_limit_s is None and self.max_iterations is None:
            raise ValueError("set time_limit_s and/or max_iterations")
        if self.time_limit_s is not None and (
                isinstance(self.time_limit_s, bool)
                or not math.isfinite(self.time_limit_s)
                or self.time_limit_s <= 0):
            # A NaN limit would never trip ``elapsed >= limit``.
            raise ValueError(f"time_limit_s must be a finite positive "
                             f"number, got {self.time_limit_s!r}")
        temperature = self.initial_temperature
        if temperature is not None and (
                isinstance(temperature, bool)
                or not math.isfinite(temperature) or temperature < 0):
            # NaN or a negative value would make every ``temperature >
            # 0.0`` test false (silent greedy descent); inf would accept
            # every move.  0.0 stays legal: that *is* greedy descent.
            raise ValueError(f"initial_temperature must be a finite "
                             f"non-negative number, got {temperature!r}")
        ints = {"portfolio_k": self.portfolio_k, "seed": self.seed}
        if self.max_iterations is not None:
            ints["max_iterations"] = self.max_iterations
        for name, value in ints.items():
            if isinstance(value, bool) \
                    or not isinstance(value, (int, np.integer)):
                raise TypeError(
                    f"{name} must be an int, got {type(value).__name__}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        unknown = set(self.moves) - set(DEFAULT_MOVES)
        if unknown:
            raise ValueError(f"unknown moves: {sorted(unknown)}")
        if not self.moves:
            raise ValueError("at least one move kind is required")
        if self.portfolio_k < 1:
            raise ValueError(
                f"portfolio_k must be >= 1, got {self.portfolio_k}")

    def with_seed(self, seed: int) -> "SAOptions":
        """These options with a different move-stream seed.

        Callers that anneal many candidates (the configurator's
        refinement pass) thread one explicit seed per candidate through
        this helper, so the outcome is a pure function of (options,
        seed) no matter which worker — or which process of a pool —
        runs the candidate.
        """
        return replace(self, seed=int(seed))


@dataclass
class SAResult:
    """Outcome of one annealing run.

    Attributes:
        mapping: best mapping found.
        value: objective value of :attr:`mapping`.
        initial_value: objective of the starting mapping (for gain
            reporting: the paper's Fig. 4 "execution time reduction").
        iterations: moves proposed.
        accepted: moves accepted.
        elapsed_s: wall-clock time spent.
        history: best-so-far objective at each improvement.
        evaluations: objective calls made — the starting evaluation,
            the temperature probes (when the temperature was derived),
            and one per iteration.
        exit_reason: which budget ended the run — ``"iteration_budget"``
            or ``"time_limit"`` — or ``"degenerate"`` when the grid
            has fewer than two blocks and the loop exited after its
            single possible evaluation.
        portfolio: the ``portfolio_k`` best *distinct* states visited,
            as ``(mapping, value)`` pairs, best first.  Entry 0 is
            always the returned best; collection is pure bookkeeping on
            accepted states (no extra objective calls or RNG draws).
    """

    mapping: Mapping
    value: float
    initial_value: float
    iterations: int
    accepted: int
    elapsed_s: float
    history: list[float] = field(default_factory=list)
    evaluations: int = 0
    exit_reason: str = "iteration_budget"
    portfolio: "list[tuple[Mapping, float]]" = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Relative latency reduction achieved by the dedication."""
        if self.initial_value == 0:
            return 0.0
        return 1.0 - self.value / self.initial_value


def _propose_into(out: np.ndarray, perm: np.ndarray, move: str,
                  draws: DrawStream) -> None:
    """Apply one move of ``perm`` into the scratch buffer ``out``.

    ``out`` must be a distinct buffer of the same shape; it is fully
    overwritten.  The draws are the ``Generator`` calls of the
    reference proposal (``tests/annealing_oracle.py``), in the same
    order, served by a :class:`~repro.utils.rng.DrawStream`: a swap is
    ``choice(n, 2, replace=False)`` (:meth:`DrawStream.pair`), a
    migrate two ``integers`` calls, a reverse one window pair plus a
    fallback swap pair when the window is shorter than two.
    """
    n = len(perm)
    out[:] = perm
    if n < 2:
        return
    if move == "swap":
        i, j = draws.pair(n)
        out[i], out[j] = perm[j], perm[i]
    elif move == "migrate":
        # Remove the element at ``i`` and reinsert it at position ``j``
        # of the shortened string — realized as two slice shifts into
        # the scratch buffer instead of an np.delete + np.insert
        # allocation pair.
        i = draws.integers(n)
        j = draws.integers(n - 1)
        if j >= i:
            out[i:j] = perm[i + 1:j + 1]
        else:
            out[j + 1:i + 1] = perm[j:i]
        out[j] = perm[i]
    elif move == "reverse":
        i, j = draws.pair(n + 1)
        if i > j:
            i, j = j, i
        if j - i >= 2:
            out[i:j] = perm[i:j][::-1]
        else:
            i2, j2 = draws.pair(n)
            out[i2], out[j2] = perm[j2], perm[i2]
    else:
        raise ValueError(f"unknown move {move!r}")


#: Probe moves drawn when deriving a starting temperature.
TEMPERATURE_PROBES: int = 16


def _temperature_from_spread(deltas: "list[float]", base: float) -> float:
    """The probe-spread → starting-temperature formula.

    The test suite's reference loop derives its temperature through
    this same function, so the derivation can never drift between them
    (the seed-identity contract needs both to land the same float).
    """
    spread = float(np.mean(deltas)) if deltas else 0.0
    if spread <= 0.0:
        spread = max(abs(base), 1.0) * 1e-3
    return 2.0 * spread


def _note_visit(pool: "dict[bytes, float] | None", perm: np.ndarray,
                value: float) -> None:
    """Record an accepted state in the portfolio pool (best value wins)."""
    if pool is None:
        return
    key = perm.tobytes()
    prev = pool.get(key)
    if prev is None or value < prev:
        pool[key] = value


def _build_portfolio(initial: Mapping, best_mapping: Mapping,
                     best_value: float, pool: "dict[bytes, float] | None",
                     portfolio_k: int) -> "list[tuple[Mapping, float]]":
    """Assemble ``SAResult.portfolio``: the best first, then runner-ups.

    Runner-ups are ordered by ``(value, permutation bytes)`` so ties
    resolve deterministically regardless of visit order, and the best
    state is excluded from the pool scan so it never appears twice.
    The keys are distinct, so the ``portfolio_k - 1`` smallest pairs
    are the head of the sorted pool, without sorting it.
    """
    portfolio = [(best_mapping, best_value)]
    if pool and portfolio_k > 1:
        best_key = np.asarray(
            best_mapping.block_to_slot, dtype=np.int64).tobytes()
        runners = heapq.nsmallest(
            portfolio_k - 1,
            ((value, key) for key, value in pool.items() if key != best_key))
        for value, key in runners:
            perm = np.frombuffer(key, dtype=np.int64).copy()
            portfolio.append(
                (Mapping(initial.grid, initial.cluster, perm), value))
    return portfolio


def _degenerate_result(initial: Mapping, value: float, start: float,
                       recorder, portfolio_k: int) -> SAResult:
    """The immediate result when the permutation space has one state.

    A grid with fewer than two blocks admits exactly one block
    permutation, so there is nothing to anneal: every proposal would
    re-score the starting state.  The loop exits through here *before*
    the temperature probe, so a wall-clock-budgeted polish
    (the one-node-survivor replan, where pp == tp == dp == 1) answers
    after its single evaluation instead of spinning the whole budget
    on no-op moves.
    """
    if recorder is not None:
        recorder.start(value, evaluations=1)
        recorder.finish("degenerate", value)
    return SAResult(
        mapping=initial.copy(), value=value, initial_value=value,
        iterations=0, accepted=0,
        elapsed_s=time.perf_counter() - start,
        history=[value], evaluations=1, exit_reason="degenerate",
        portfolio=[(initial.copy(), value)] if portfolio_k >= 1 else [],
    )


def anneal_mapping(initial: Mapping,
                   objective: Callable[[Mapping], float],
                   options: SAOptions | None = None,
                   recorder=None) -> SAResult:
    """Minimize ``objective`` over block permutations starting at ``initial``.

    This is the ``SA_NextMap`` loop of Algorithm 1 (lines 9-15): each
    iteration proposes one move, evaluates the latency estimator, and
    accepts by the Metropolis criterion under a geometrically cooling
    temperature.

    ``objective`` is either a plain callable on mappings or — the fast
    path — an object exposing ``evaluate_perm(perm) -> float`` such as
    :class:`repro.core.latency_kernel.LatencyKernel`, in which case
    every proposal is one full re-score of the permutation array and
    the loop never constructs a ``Mapping``.  Both forms draw the
    identical stream, so for a given seed an iteration-budgeted
    run's accept/reject trajectory, best mapping, and value match the
    pre-kernel reference loop exactly (bit-identical when the kernel's
    objective values are, which :mod:`repro.core.latency_kernel`
    guarantees).  Wall-clock-budgeted runs are inherently
    timing-dependent; this loop polls the clock only every
    :data:`TIME_CHECK_INTERVAL` moves, so it may overshoot the limit
    by up to that many iterations.

    ``recorder`` is an optional :class:`repro.obs.recorder.
    FlightRecorder` observing the run.  It draws nothing from the stream
    and never touches the mapping, so the trajectory with a recorder
    attached is bit-identical to the bare run; without one the loop
    pays a single ``is not None`` test per iteration.
    """
    options = options or SAOptions()
    draws = DrawStream(options.seed)
    start = time.perf_counter()

    evaluate_perm = getattr(objective, "evaluate_perm", None)
    if evaluate_perm is not None:
        kernel_grid = getattr(objective, "grid", None)
        if kernel_grid is not None and kernel_grid != initial.grid:
            raise ValueError(
                f"objective kernel compiled for grid {kernel_grid} cannot "
                f"score mappings of grid {initial.grid}"
            )
        evaluate = lambda perm: float(evaluate_perm(perm))  # noqa: E731
    else:
        def evaluate(perm: np.ndarray) -> float:
            return float(objective(initial.with_block_permutation(perm.copy())))

    current = np.array(initial.block_to_slot, dtype=np.int64)
    scratch = np.empty_like(current)
    current_value = evaluate(current)
    initial_value = current_value
    best = current.copy()
    best_value = current_value
    history = [best_value]
    setup_evaluations = 1

    if len(current) < 2:
        return _degenerate_result(initial, current_value, start, recorder,
                                  options.portfolio_k)

    temperature = options.initial_temperature
    if temperature is None:
        # Probe moves start from ``initial`` each time, replicating
        # the reference loop's probe draw for draw on the permutation
        # arrays (same move stream, same spread formula).
        deltas = []
        for _ in range(TEMPERATURE_PROBES):
            move = options.moves[draws.integers(len(options.moves))]
            _propose_into(scratch, current, move, draws)
            deltas.append(abs(evaluate(scratch) - current_value))
        temperature = _temperature_from_spread(deltas, current_value)
        setup_evaluations += TEMPERATURE_PROBES

    if recorder is not None:
        recorder.start(initial_value, evaluations=setup_evaluations)

    pool = {current.tobytes(): current_value} \
        if options.portfolio_k > 1 else None

    iterations = accepted = 0
    exit_reason = "iteration_budget"
    moves, max_iterations = options.moves, options.max_iterations
    time_limit_s, alpha = options.time_limit_s, options.alpha
    while True:
        if max_iterations is not None and iterations >= max_iterations:
            break
        if time_limit_s is not None \
                and iterations % TIME_CHECK_INTERVAL == 0 \
                and time.perf_counter() - start >= time_limit_s:
            exit_reason = "time_limit"
            break
        move = moves[draws.integers(len(moves))]
        _propose_into(scratch, current, move, draws)
        value = evaluate(scratch)
        delta = value - current_value
        accepted_move = delta <= 0.0 or (
            temperature > 0.0
            and draws.random() < math.exp(-delta / temperature))
        if accepted_move:
            current, scratch = scratch, current
            current_value = value
            accepted += 1
            if value < best_value:
                best[:] = current
                best_value = value
                history.append(best_value)
            _note_visit(pool, current, value)
        if recorder is not None:
            recorder.sample(iterations, temperature, best_value,
                            accepted_move, move=move)
        temperature *= alpha
        iterations += 1

    if recorder is not None:
        recorder.finish(exit_reason, best_value)
    best_mapping = Mapping(initial.grid, initial.cluster, best.copy())
    return SAResult(
        mapping=best_mapping,
        value=best_value,
        initial_value=initial_value,
        iterations=iterations,
        accepted=accepted,
        elapsed_s=time.perf_counter() - start,
        history=history,
        evaluations=setup_evaluations + iterations,
        exit_reason=exit_reason,
        portfolio=_build_portfolio(initial, best_mapping, best_value, pool,
                                   options.portfolio_k),
    )
