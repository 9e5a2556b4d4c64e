"""The annealer flight recorder: cheap, sampled SA convergence telemetry.

Aggregate metrics say a candidate's anneal took 80 ms; they cannot say
whether it *converged* or merely hit the time limit, nor what the
temperature and acceptance rate looked like on the way down — the
per-iteration telemetry that tuning systems (PipeTune) live on.  A
:class:`FlightRecorder` rides along one :func:`~repro.core.annealing.
anneal_mapping` call and captures a bounded, decimated series of
``(iteration, temperature, best_so_far, acceptance_rate)`` samples
plus run provenance (cold start or warm start) and the exit reason.

The recorder must never perturb the search itself:

* it draws nothing from the RNG and never touches the mapping, so the
  accept/reject trajectory is bit-identical with or without it;
* the hot loop pays one ``is not None`` check when recording is off
  (the annealer's default), keeping the PR 5 kernel floor intact;
* when on, sampling is strided and the series is capped: once
  ``max_samples`` is reached the stride doubles and every other stored
  sample is dropped, so a million-iteration run still yields at most
  ``max_samples`` points with even coverage.

Recorders are created in exactly two places, the two anneal sites:

* :func:`repro.core.configurator.refine_unit` — in the worker process,
  when candidates fan out over a process pool — whose recorders travel
  home as the plain-dict :meth:`FlightRecorder.to_payload`, which the
  parent attaches to that candidate's ``search.candidate`` span;
* :func:`repro.service.planner.polish`, the warm polish of template
  answers and elastic re-plans, which runs inline and attaches its
  ``"warm-start"`` payload to its caller's span directly.
"""

from __future__ import annotations

__all__ = ["FlightRecorder"]

#: Default cap on stored samples (decimation threshold).
DEFAULT_MAX_SAMPLES = 256


class FlightRecorder:
    """Convergence telemetry for one simulated-annealing run.

    Args:
        provenance: where the starting mapping came from — ``"cold"``
            (naive placement) or ``"warm-start"`` (a template's
            placement, or the incumbent plan's, polished after an
            elastic event).
        max_samples: stored-series bound; the stride doubles and the
            series is thinned 2:1 whenever it fills.
        stride: initial sampling stride in iterations.
    """

    __slots__ = ("provenance", "max_samples", "stride", "samples",
                 "exit_reason", "iterations", "evaluations", "accepted",
                 "initial_value", "final_value", "_accept_window",
                 "_window_span", "moves_proposed", "moves_accepted")

    def __init__(self, provenance: str = "cold",
                 max_samples: int = DEFAULT_MAX_SAMPLES,
                 stride: int = 16) -> None:
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.provenance = provenance
        self.max_samples = int(max_samples)
        self.stride = int(stride)
        #: Stored rows: ``(iteration, temperature, best, accept_rate)``.
        self.samples: "list[tuple[int, float, float, float]]" = []
        self.exit_reason: "str | None" = None
        self.iterations = 0
        self.evaluations = 0
        self.accepted = 0
        self.initial_value: "float | None" = None
        self.final_value: "float | None" = None
        self._accept_window = 0   # accepts since the last stored sample
        self._window_span = 0     # iterations since the last stored sample
        #: Per-move-kind proposal / acceptance counters, filled only for
        #: iterations whose move kind the loop reports.
        self.moves_proposed: "dict[str, int]" = {}
        self.moves_accepted: "dict[str, int]" = {}

    def start(self, initial_value: float, evaluations: int = 1) -> None:
        """Record the starting objective and evaluations spent so far.

        ``evaluations`` counts objective calls made before iteration 0
        — the initial evaluation plus any temperature probes.
        """
        self.initial_value = float(initial_value)
        self.evaluations = int(evaluations)

    def sample(self, iteration: int, temperature: float, best: float,
               accepted_move: bool, move: "str | None" = None) -> None:
        """Observe one iteration (called from the annealing hot loop).

        Every call is O(1); a row is stored only every ``stride``
        iterations, carrying the acceptance *rate over the window*
        since the previous stored row rather than a point sample.
        ``move`` names the proposed move's kind for the per-kind
        counters — bookkeeping on a value the loop already has, no RNG
        draws.
        """
        self.iterations = iteration + 1
        self.evaluations += 1
        if move is not None:
            self.moves_proposed[move] = self.moves_proposed.get(move, 0) + 1
            if accepted_move:
                self.moves_accepted[move] = \
                    self.moves_accepted.get(move, 0) + 1
        self._window_span += 1
        if accepted_move:
            self.accepted += 1
            self._accept_window += 1
        if (iteration + 1) % self.stride:
            return
        rate = self._accept_window / self._window_span
        self.samples.append(
            (iteration + 1, float(temperature), float(best), rate))
        self._accept_window = 0
        self._window_span = 0
        if len(self.samples) >= self.max_samples:
            # Thin 2:1 and double the stride: coverage stays even,
            # memory stays bounded, future samples land on the new grid.
            self.samples = self.samples[1::2]
            self.stride *= 2

    def finish(self, exit_reason: str, final_value: float) -> None:
        """Seal the run with its exit reason and best objective."""
        self.exit_reason = exit_reason
        self.final_value = float(final_value)

    def to_payload(self) -> dict:
        """Plain-dict form — picklable, JSON-serializable, and small.

        The series is transposed into parallel arrays (one list per
        field) so a dump reads naturally into plotting code.
        """
        return {
            "provenance": self.provenance,
            "exit_reason": self.exit_reason,
            "iterations": self.iterations,
            "evaluations": self.evaluations,
            "accepted": self.accepted,
            "initial_value": self.initial_value,
            "final_value": self.final_value,
            "moves": {
                "proposed": dict(self.moves_proposed),
                "accepted": dict(self.moves_accepted),
            },
            "series": {
                "iteration": [row[0] for row in self.samples],
                "temperature": [row[1] for row in self.samples],
                "best_so_far": [row[2] for row in self.samples],
                "acceptance_rate": [row[3] for row in self.samples],
            },
        }
