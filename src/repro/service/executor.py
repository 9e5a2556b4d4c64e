"""Parallel candidate evaluation over one process pool.

Algorithm 1's cost is dominated by embarrassingly parallel
per-candidate work: one memory-estimator forward pass per enumerated
configuration, one latency evaluation per survivor, and one simulated
annealing run per leader.  The configurator factors that work into
pure, picklable units (:mod:`repro.core.configurator`); this module
supplies the process pool that fans the units out.  Inside each
refinement unit the annealer runs against a compiled
:class:`~repro.core.latency_kernel.LatencyKernel`, so the pool
multiplies an already-vectorized per-candidate hot loop.

Determinism is preserved by construction: every unit's outcome is a
pure function of ``(context, item)`` with per-candidate seeds baked
into the item, so a search run through a :class:`CandidateExecutor`
returns *identical* results to the serial search.

The pool is processes only.  Threads cannot run the units in
parallel, because the annealer's Python loop holds the GIL: on a
2-vCPU host a 16-node cold search took 1.3-1.4 s on a 2-thread pool,
0.7-0.9 s inline and 0.5-0.7 s on a warm 2-process pool.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace


def available_workers() -> int:
    """Usable CPU count of this host (affinity-aware when possible)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


@dataclass
class ExecutorStats:
    """Work accounting of one :class:`CandidateExecutor`.

    Attributes:
        batches: ``map`` calls served.
        tasks: work-unit items dispatched across all batches.
    """

    batches: int = 0
    tasks: int = 0


class CandidateExecutor:
    """A reusable process pool that maps work units over candidates.

    Args:
        max_workers: pool width; defaults to the usable CPU count.

    The pool is built here but starts no worker process before the
    first :meth:`map`, and it is reused across searches: a planning
    service keeps one executor for its lifetime, so candidate
    evaluation pays process start-up once, not per request.  Use as a
    context manager or call :meth:`close` to release the workers.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self.n_workers = int(max_workers) if max_workers is not None \
            else available_workers()
        if self.n_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.stats = ExecutorStats()
        self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
        # One executor is shared by every cluster's searches, and the
        # gateway drains clusters concurrently: stat bumps synchronize
        # here.  The pool's own ``map`` is safe for concurrent callers.
        self._lock = threading.Lock()

    def map(self, fn, items) -> list:
        """Run ``fn`` over ``items`` on the pool, preserving order.

        The work-unit contract of :func:`repro.core.configurator.run_units`:
        ``fn`` is picklable (a module-level unit with its
        :class:`~repro.core.configurator.SearchContext` bound by
        ``functools.partial``) and so is each item.  Items go out in
        at most ``n_workers`` contiguous chunks, so ``fn`` and its
        context are pickled once per chunk, not once per item.
        """
        items = list(items)
        with self._lock:
            self.stats.batches += 1
            self.stats.tasks += len(items)
        chunksize = max(1, math.ceil(len(items) / self.n_workers))
        return list(self._pool.map(fn, items, chunksize=chunksize))

    def stats_snapshot(self) -> ExecutorStats:
        """An atomically-consistent copy of :attr:`stats`.

        ``map`` bumps both counters under the executor lock from
        whichever drain thread is searching; readers that report the
        pair together (service stats, ``/metrics``) copy them under
        the same lock so the two can never be from different moments.
        """
        with self._lock:
            return replace(self.stats)

    def close(self) -> None:
        """Shut the pool down and wait for its workers (idempotent)."""
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "CandidateExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"CandidateExecutor(n_workers={self.n_workers})"
