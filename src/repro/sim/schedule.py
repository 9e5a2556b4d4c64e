"""Pipeline schedules as abstract per-device instruction sequences.

A schedule is no longer a hard-coded op-list generator: each
:class:`PipeSchedule` declares, per pipeline *device*, an ordered
sequence of instructions (:class:`ForwardPass`, :class:`BackwardPass`,
framed by :class:`SendActivation`/:class:`RecvActivation` and
:class:`SendGrad`/:class:`RecvGrad` transfers) over *virtual stages* —
model chunks.  Readiness is declared as data, not code:
:meth:`PipeSchedule.dependencies` returns the producing instructions a
step waits on (and which device boundary the tensor crosses), so the
discrete-event engine (:mod:`repro.sim.engine`) can execute **any**
registered schedule without pattern-matching F/B lists.

Shipped schedules:

* **1F1B** (``"1f1b"``, memory-efficient, Fig. 2b): after a short
  warmup each device alternates one forward with one backward, so at
  most ``pp - stage`` activations are alive at once.  This is the
  de facto standard (PipeDream-Flush / Megatron-LM) and the schedule
  whose *hidden critical path* motivates Pipette's latency model.
* **GPipe** (``"gpipe"``, memory-unaware, Fig. 2a): all forwards, then
  all backwards; simple but stores every microbatch's activations.
* **Interleaved 1F1B** (``"interleaved_1f1b"``, Megatron virtual
  stages): each device hosts ``degree`` non-contiguous model chunks,
  so the fill/drain bubble shrinks by ``1/degree`` at the cost of
  ``degree`` times the inter-stage traffic.  Requires ``n_mb`` to be a
  multiple of ``pp`` (the Megatron constraint).

New schedules register themselves with :func:`register_schedule`;
:func:`build_schedule` resolves names through that registry and lists
the registered names on a miss.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar

from repro.utils.validation import check_positive_int

#: Forward-pass op kind (used in dependencies and engine timelines).
FORWARD = "F"
#: Backward-pass op kind.
BACKWARD = "B"


# ------------------------------------------------------------- instructions


@dataclass(frozen=True)
class Instruction:
    """One step of a pipeline schedule on one device.

    Attributes:
        stage: pipeline *device* executing the instruction.
        microbatch: microbatch index in ``[0, n_mb)``.
        virtual_stage: global model-chunk index in
            ``[0, pp * degree)``; equals ``stage`` for flat (degree-1)
            schedules.
    """

    stage: int
    microbatch: int
    virtual_stage: int

    def __post_init__(self) -> None:
        if self.stage < 0:
            raise ValueError(f"stage must be non-negative, got {self.stage}")
        if self.microbatch < 0:
            raise ValueError(
                f"microbatch must be non-negative, got {self.microbatch}")
        if self.virtual_stage < 0:
            raise ValueError(
                f"virtual_stage must be non-negative, got {self.virtual_stage}")


@dataclass(frozen=True)
class ForwardPass(Instruction):
    """Run one microbatch forward through one model chunk."""


@dataclass(frozen=True)
class BackwardPass(Instruction):
    """Run one microbatch backward through one model chunk."""


@dataclass(frozen=True)
class CommInstruction(Instruction):
    """A boundary-tensor transfer between two pipeline devices.

    Attributes:
        peer: the device on the other end of the transfer.
    """

    peer: int


@dataclass(frozen=True)
class SendActivation(CommInstruction):
    """Ship this chunk's output activation to the next chunk's device."""


@dataclass(frozen=True)
class RecvActivation(CommInstruction):
    """Receive the previous chunk's output activation."""


@dataclass(frozen=True)
class SendGrad(CommInstruction):
    """Ship this chunk's input gradient to the previous chunk's device."""


@dataclass(frozen=True)
class RecvGrad(CommInstruction):
    """Receive the next chunk's input gradient."""


@dataclass(frozen=True)
class Dependency:
    """One readiness predicate of a compute instruction, as data.

    The instruction may start once the referenced producer has
    finished — plus, when ``transfer_from`` names another device, the
    boundary tensor's transfer time over the actual mapped link.

    Attributes:
        kind: :data:`FORWARD` or :data:`BACKWARD` — which table the
            producer finished into.
        virtual_stage: producing model chunk.
        microbatch: producing microbatch.
        transfer_from: device the tensor crosses from; ``None`` when
            the producer ran on the consuming device (no transfer).
    """

    kind: str
    virtual_stage: int
    microbatch: int
    transfer_from: int | None = None


# ---------------------------------------------------------------- schedules


class PipeSchedule(ABC):
    """A pipeline schedule: per-device instruction sequences.

    Subclasses set :attr:`name` (the registry key), optionally
    :attr:`degree` (model chunks per device; 1 for flat schedules),
    and implement :meth:`compute_steps`.  Everything else — the
    comm-instruction framing of :meth:`steps`, the readiness records
    of :meth:`dependencies`, the peak-activation counter — is derived
    mechanically, so a new schedule is exactly one ordering function.

    Args:
        pp: pipeline-parallel ways (devices).
        n_microbatches: microbatches per iteration.
    """

    #: Registry key of the schedule (``"1f1b"``, ``"gpipe"``, ...).
    name: ClassVar[str]
    #: Model chunks per device (Megatron's virtual-pipeline degree).
    degree: ClassVar[int] = 1

    def __init__(self, pp: int, n_microbatches: int) -> None:
        check_positive_int(pp, "pp")
        check_positive_int(n_microbatches, "n_microbatches")
        ok, why = type(self).feasible(pp, n_microbatches)
        if not ok:
            raise ValueError(
                f"schedule {self.name!r} cannot run with pp={pp}, "
                f"n_microbatches={n_microbatches}: {why}")
        self.pp = pp
        self.n_microbatches = n_microbatches

    # ------------------------------------------------------------ geometry

    @classmethod
    def feasible(cls, pp: int, n_microbatches: int,
                 n_layers: int | None = None) -> tuple[bool, str]:
        """Whether the schedule can run a shape; ``(ok, reason)``.

        The configurator uses this to prune the search space before
        constructing anything; :meth:`__init__` enforces the same
        predicate (minus the model-dependent layer check).
        """
        if n_layers is not None and n_layers < pp * cls.degree:
            return (False,
                    f"needs at least pp * degree = {pp * cls.degree} layers, "
                    f"model has {n_layers}")
        return True, ""

    @property
    def n_virtual_stages(self) -> int:
        """Model chunks across the whole pipeline: ``pp * degree``."""
        return self.pp * self.degree

    def device_of(self, virtual_stage: int) -> int:
        """The device hosting a chunk (Megatron round-robin placement)."""
        return virtual_stage % self.pp

    def virtual_stage(self, stage: int, chunk: int) -> int:
        """Global chunk index of local ``chunk`` on ``stage``."""
        return chunk * self.pp + stage

    def local_chunks(self, stage: int) -> list[int]:
        """Global chunk indices hosted by one device, shallow first."""
        return [self.virtual_stage(stage, k) for k in range(self.degree)]

    # --------------------------------------------------------- instructions

    @abstractmethod
    def compute_steps(self, stage: int) -> list[Instruction]:
        """Ordered :class:`ForwardPass`/:class:`BackwardPass` of a device."""

    def steps(self, stage: int) -> list[Instruction]:
        """The full instruction stream of a device, transfers included.

        Each compute step is framed mechanically: a consumer on
        another device means a :class:`SendActivation`/:class:`SendGrad`
        after it, a producer on another device a
        :class:`RecvActivation`/:class:`RecvGrad` before it.
        """
        n_vs = self.n_virtual_stages
        out: list[Instruction] = []
        for inst in self.compute_steps(stage):
            vs, m = inst.virtual_stage, inst.microbatch
            if isinstance(inst, ForwardPass):
                if vs > 0 and self.device_of(vs - 1) != stage:
                    out.append(RecvActivation(stage, m, vs,
                                              peer=self.device_of(vs - 1)))
                out.append(inst)
                if vs < n_vs - 1 and self.device_of(vs + 1) != stage:
                    out.append(SendActivation(stage, m, vs,
                                              peer=self.device_of(vs + 1)))
            else:
                if vs < n_vs - 1 and self.device_of(vs + 1) != stage:
                    out.append(RecvGrad(stage, m, vs,
                                        peer=self.device_of(vs + 1)))
                out.append(inst)
                if vs > 0 and self.device_of(vs - 1) != stage:
                    out.append(SendGrad(stage, m, vs,
                                        peer=self.device_of(vs - 1)))
        return out

    def dependencies(self, inst: Instruction) -> tuple[Dependency, ...]:
        """The readiness predicates of one compute instruction.

        A forward needs the previous chunk's forward of the same
        microbatch; a backward needs the next chunk's backward *and*
        its own chunk's forward.  ``transfer_from`` is set whenever the
        producer lives on a different device, so the engine charges
        the boundary transfer over the actual mapped link.
        """
        vs, m = inst.virtual_stage, inst.microbatch
        if isinstance(inst, ForwardPass):
            if vs == 0:
                return ()
            up = self.device_of(vs - 1)
            return (Dependency(FORWARD, vs - 1, m,
                               transfer_from=up if up != inst.stage else None),)
        if isinstance(inst, BackwardPass):
            deps = []
            if vs < self.n_virtual_stages - 1:
                down = self.device_of(vs + 1)
                deps.append(Dependency(
                    BACKWARD, vs + 1, m,
                    transfer_from=down if down != inst.stage else None))
            deps.append(Dependency(FORWARD, vs, m))
            return tuple(deps)
        raise TypeError(
            f"dependencies are defined for compute instructions, "
            f"got {type(inst).__name__}")

    # -------------------------------------------------------------- memory

    def peak_activation_chunks(self, stage: int) -> int:
        """Peak simultaneously-live activation *chunks* on one device.

        Counts forwards minus backwards along the device's compute
        sequence.  For flat schedules a chunk is a whole stage's
        activations (1F1B: ``min(pp - stage, n_mb)``; GPipe:
        ``n_mb``); for interleaved schedules each chunk holds
        ``1/degree`` of the device's layers, so the device-stage
        equivalent is this value divided by :attr:`degree`.

        The count is memoized per ``(schedule class, pp, n_mb, stage)``
        (a schedule is a pure function of its shape), so the memory
        ground truth and the first-principles prior walk each stream
        once per process instead of once per configuration.
        """
        return _peak_activation_chunks(type(self), self.pp,
                                       self.n_microbatches, stage)

    # ------------------------------------------------------------- latency

    @classmethod
    @abstractmethod
    def critical_time(cls, pp: int, n_mb: int, c_tp: float,
                      t_pp: float) -> float:
        """Analytic pipeline critical-path time of the schedule.

        The schedule-aware generalization of the paper's Eqs. (3)-(5)
        bubble + straggler terms: ``c_tp`` is the straggler stage's
        per-microbatch compute + TP time, ``t_pp`` the end-to-end
        pipeline communication path.  The data-parallel term (Eq. 6)
        is schedule-independent and added by the caller.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(pp={self.pp}, "
                f"n_microbatches={self.n_microbatches})")


# ----------------------------------------------------------------- registry


#: Registered schedules by name.  Mutated only by ``register_schedule``.
SCHEDULES: "dict[str, type[PipeSchedule]]" = {}


def register_schedule(cls: "type[PipeSchedule]") -> "type[PipeSchedule]":
    """Class decorator: make a :class:`PipeSchedule` name-resolvable."""
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(
            f"{cls.__name__} needs a non-empty ``name`` class attribute")
    if name in SCHEDULES:
        raise ValueError(f"schedule name {name!r} is already registered "
                         f"(by {SCHEDULES[name].__name__})")
    SCHEDULES[name] = cls
    return cls


def registered_schedules() -> tuple[str, ...]:
    """Names of every registered schedule, sorted."""
    return tuple(sorted(SCHEDULES))


def schedule_type(name: str) -> "type[PipeSchedule]":
    """Resolve a schedule name to its class, or raise listing the names."""
    cls = SCHEDULES.get(name)
    if cls is None:
        known = ", ".join(repr(n) for n in registered_schedules())
        raise ValueError(
            f"unknown schedule {name!r}; registered schedules: {known}")
    return cls


def build_schedule(name: str, pp: int, n_microbatches: int) -> PipeSchedule:
    """Instantiate a registered schedule by name."""
    return schedule_type(name)(pp, n_microbatches)


def pipeline_critical_time(name: str, pp: int, n_mb: int, c_tp: float,
                           t_pp: float) -> float:
    """Analytic critical-path time of schedule ``name`` (see
    :meth:`PipeSchedule.critical_time`)."""
    return schedule_type(name).critical_time(pp, n_mb, c_tp, t_pp)


@functools.lru_cache(maxsize=4096)
def _peak_activation_chunks(cls: "type[PipeSchedule]", pp: int,
                            n_microbatches: int, stage: int) -> int:
    """Forwards minus backwards, at their peak, along one device's
    compute stream (see :meth:`PipeSchedule.peak_activation_chunks`)."""
    live = peak = 0
    for inst in cls(pp, n_microbatches).compute_steps(stage):
        if isinstance(inst, ForwardPass):
            live += 1
        elif isinstance(inst, BackwardPass):
            live -= 1
        peak = max(peak, live)
    return peak


def max_in_flight(schedule: PipeSchedule, stage: int) -> int:
    """Peak live activation chunks on ``stage`` under a schedule."""
    return schedule.peak_activation_chunks(stage)


# ----------------------------------------------------------- concrete: 1F1B


@register_schedule
class OneFOneBSchedule(PipeSchedule):
    """Memory-efficient 1F1B (PipeDream-Flush / Megatron, Fig. 2b).

    Device ``s`` performs ``min(pp - s - 1, n_mb)`` warmup forwards,
    then alternates forward/backward in the steady state, then drains
    the remaining backwards.
    """

    name = "1f1b"

    def compute_steps(self, stage: int) -> list[Instruction]:
        n_mb = self.n_microbatches
        warmup = min(self.pp - stage - 1, n_mb)
        steps: list[Instruction] = []
        for m in range(warmup):
            steps.append(ForwardPass(stage, m, stage))
        for k in range(n_mb - warmup):
            steps.append(ForwardPass(stage, warmup + k, stage))
            steps.append(BackwardPass(stage, k, stage))
        for k in range(n_mb - warmup, n_mb):
            steps.append(BackwardPass(stage, k, stage))
        return steps

    @classmethod
    def critical_time(cls, pp: int, n_mb: int, c_tp: float,
                      t_pp: float) -> float:
        # Eq. (3)-(4): T = T_bubble * (n_mb / pp) + T_straggler — the
        # hidden critical path re-crosses the pipeline every ``pp``
        # microbatches.  Kept verbatim from the pre-refactor model so
        # 1F1B rankings stay bit-identical.
        t_bubble = pp * c_tp + t_pp
        t_straggler = (pp - 1) * c_tp
        return t_bubble * (n_mb / pp) + t_straggler


# ---------------------------------------------------------- concrete: GPipe


@register_schedule
class GPipeSchedule(PipeSchedule):
    """Memory-unaware GPipe (Fig. 2a): all forwards, then all backwards."""

    name = "gpipe"

    def compute_steps(self, stage: int) -> list[Instruction]:
        n_mb = self.n_microbatches
        steps: list[Instruction] = [ForwardPass(stage, m, stage)
                                    for m in range(n_mb)]
        steps += [BackwardPass(stage, m, stage) for m in range(n_mb)]
        return steps

    @classmethod
    def critical_time(cls, pp: int, n_mb: int, c_tp: float,
                      t_pp: float) -> float:
        # One fill, one drain: the pipeline is crossed once in each
        # direction, so inter-stage communication is paid once and the
        # bubble is the classic ``(pp - 1)`` fill/drain slots.
        return (n_mb + pp - 1) * c_tp + t_pp


# --------------------------------------------- concrete: interleaved 1F1B


@register_schedule
class Interleaved1F1BSchedule(PipeSchedule):
    """Megatron's interleaved 1F1B over virtual stages.

    Each device hosts :attr:`degree` non-contiguous model chunks
    (device ``s`` runs global chunks ``s, s + pp, ...``), so the
    fill/drain bubble shrinks by ``1/degree`` while every microbatch
    crosses device boundaries ``degree`` times as often.  Microbatches
    advance in groups of ``pp``: a device runs ``pp`` microbatches
    through its shallow chunk, the same ``pp`` through the next chunk,
    and so on — which is why ``n_mb`` must be a multiple of ``pp``.
    """

    name = "interleaved_1f1b"
    degree = 2

    @classmethod
    def feasible(cls, pp: int, n_microbatches: int,
                 n_layers: int | None = None) -> tuple[bool, str]:
        if pp < 2:
            return False, "virtual stages need pp >= 2"
        if n_microbatches % pp != 0:
            return (False,
                    f"n_microbatches ({n_microbatches}) must be a multiple "
                    f"of pp ({pp})")
        return super().feasible(pp, n_microbatches, n_layers)

    # Megatron's ordering functions: the f-th forward (b-th backward)
    # of a device maps to a (chunk, microbatch) slot; microbatches
    # advance in groups of ``pp`` per chunk, and backwards visit the
    # chunks deepest-first.

    def _forward_slot(self, stage: int, f: int) -> tuple[int, int]:
        group = self.pp * self.degree
        chunk = (f % group) // self.pp
        microbatch = (f // group) * self.pp + (f % self.pp)
        return self.virtual_stage(stage, chunk), microbatch

    def _backward_slot(self, stage: int, b: int) -> tuple[int, int]:
        group = self.pp * self.degree
        chunk = self.degree - 1 - ((b % group) // self.pp)
        microbatch = (b // group) * self.pp + (b % self.pp)
        return self.virtual_stage(stage, chunk), microbatch

    def compute_steps(self, stage: int) -> list[Instruction]:
        total = self.n_microbatches * self.degree
        warmup = min((self.pp - stage - 1) * 2 + (self.degree - 1) * self.pp,
                     total)
        steps: list[Instruction] = []
        for f in range(warmup):
            vs, m = self._forward_slot(stage, f)
            steps.append(ForwardPass(stage, m, vs))
        for b in range(total - warmup):
            vs, m = self._forward_slot(stage, warmup + b)
            steps.append(ForwardPass(stage, m, vs))
            vs, m = self._backward_slot(stage, b)
            steps.append(BackwardPass(stage, m, vs))
        for b in range(total - warmup, total):
            vs, m = self._backward_slot(stage, b)
            steps.append(BackwardPass(stage, m, vs))
        return steps

    @classmethod
    def critical_time(cls, pp: int, n_mb: int, c_tp: float,
                      t_pp: float) -> float:
        # The hidden critical path still re-crosses the pipeline every
        # ``pp`` microbatches, but each crossing now hops ``degree``
        # chunk boundaries per device pair; the fill/drain straggler
        # bubble shrinks by ``1/degree`` (each warmup slot advances a
        # chunk of ``1/degree`` of a device's layers).
        v = cls.degree
        t_bubble = pp * c_tp + v * t_pp
        return t_bubble * (n_mb / pp) + ((pp - 1) * c_tp) / v
