"""Algorithm 1: the end-to-end Pipette search procedure.

Given the GPU count, global batch size and per-GPU memory limit,
Pipette:

1. profiles the actual bandwidth matrix (done by the caller via
   :class:`repro.cluster.profiler.NetworkProfiler`),
2. enumerates ``(pp, tp, dp)`` factorizations and microbatch sizes,
3. skips configurations the memory estimator flags as OOM (line 7),
4. for each survivor, searches worker-to-GPU mappings with simulated
   annealing, scoring each mapping with the latency estimator
   (lines 9-15),
5. returns the best configuration, mapping, and estimated latency.

Steps 2-4 are the stages :meth:`PipetteConfigurator.candidates`,
:meth:`~PipetteConfigurator.memory_pass` and
:meth:`~PipetteConfigurator.rank`; :meth:`~PipetteConfigurator.search`
and the template library (:mod:`repro.core.templates`) both compose
them.  The per-candidate work of steps 3-4 is factored into *pure, picklable
work units* (:func:`memory_check_unit`, :func:`score_unit`,
:func:`refine_unit`), each taking a :class:`SearchContext` and one
candidate.  The serial path simply calls them inline;
:mod:`repro.service.executor` fans the same units out over a process
pool.  Each refinement unit carries an explicit per-candidate seed, so
parallel and serial searches produce identical results.

The ablation variants of the paper's Fig. 6 are factory functions:
:func:`pipette_l` (latency estimator only, naive mapping — "PPT-L")
and :func:`pipette_lf` (plus fine-grained worker dedication —
"PPT-LF").
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro.cluster.fabric import BandwidthMatrix
from repro.cluster.topology import ClusterSpec
from repro.core.annealing import SAOptions, SAResult, anneal_mapping
from repro.core.latency_kernel import LatencyKernel, pipette_kernel
from repro.core.latency_model import pipette_latency
from repro.core.memory_estimator import MemoryEstimator
from repro.model.transformer import TransformerConfig
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import TRACER
from repro.parallel.config import ParallelConfig, enumerate_parallel_configs
from repro.parallel.mapping import Mapping, WorkerGrid, sequential_mapping
from repro.profiling.profile_run import ComputeProfile

#: Schema version of the ``to_payload`` serializations below.  Bump it
#: whenever a payload's shape changes; readers refuse versions they do
#: not understand rather than silently mis-deserializing.
#: Version history: 1 — pre-schedule payloads (configs carry no
#: ``schedule`` key and are implicitly 1F1B); 2 — configs record their
#: pipeline schedule; 3 — ranked entries carry their annealing
#: portfolio (runner-up mappings for warm re-plans).
PAYLOAD_VERSION = 3

#: Payload versions :meth:`PipetteResult.from_payload` can read.
#: Version-1 configs rehydrate as 1F1B via
#: :meth:`repro.parallel.config.ParallelConfig.from_payload`; versions
#: 1 and 2 rehydrate with empty portfolios.
READABLE_PAYLOAD_VERSIONS = (1, 2, PAYLOAD_VERSION)


@dataclass(frozen=True)
class PipetteOptions:
    """Behaviour switches of the search.

    Attributes:
        use_worker_dedication: run the SA mapping search (PPT-LF);
            otherwise keep the framework's sequential mapping (PPT-L).
        sa: annealing budget/hyper-parameters per refined candidate.
            The default carries ``portfolio_k=4`` so every refined
            candidate ships runner-up mappings for elastic warm
            starts; collection is pure bookkeeping
            (:class:`~repro.core.annealing.SAResult`).
        sa_top_k: run SA only on this many of the best candidates (by
            naive-mapping latency).  Algorithm 1 anneals every
            candidate; bounding the refined set is an optimization
            that leaves results unchanged in practice because SA gains
            a few percent and cannot rescue a configuration that
            starts far behind.  Set to 0 to anneal every candidate.
        max_micro_batch: largest microbatch swept (the paper uses 8).
        seed: seed stream for the annealer.
    """

    use_worker_dedication: bool = True
    sa: SAOptions = field(default_factory=lambda: SAOptions(
        max_iterations=3000, portfolio_k=4))
    sa_top_k: int = 8
    max_micro_batch: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        # Refused here, not mid-search (after enumeration and scoring).
        for name, low in (("sa_top_k", 0), ("max_micro_batch", 1),
                          ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) \
                    or not isinstance(value, (int, np.integer)):
                raise TypeError(
                    f"{name} must be an int, got {type(value).__name__}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class RankedConfig:
    """One evaluated configuration in the result ranking.

    Attributes:
        config: the parallelization.
        mapping: worker placement used for the latency estimate.
        estimated_latency_s: latency-estimator output.
        estimated_memory_bytes: memory-estimator output (``None`` when
            the search ran without a memory estimator).
        memory_ok: whether the memory check passed; ``False`` marks a
            best-effort recommendation (the estimator believed nothing
            fits and returned the least-memory candidates anyway).
        portfolio: runner-up mappings from the annealing portfolio
            (:attr:`~repro.core.annealing.SAResult.portfolio` minus its
            leading entry, which *is* :attr:`mapping`), best first.
            Elastic re-plans polish the best survivor of these instead
            of a single plan; empty for unrefined entries and for
            payloads predating version 3.
    """

    config: ParallelConfig
    mapping: Mapping
    estimated_latency_s: float
    estimated_memory_bytes: float | None
    memory_ok: bool
    portfolio: "tuple[Mapping, ...]" = ()

    @property
    def sort_key(self) -> tuple:
        """Deterministic ranking key: latency, then configuration shape.

        Symmetric clusters produce exact latency ties; breaking them on
        ``(pp, tp, dp, micro_batch, schedule)`` keeps rankings stable
        across runs and across serial/parallel worker pools.
        """
        return (self.estimated_latency_s, self.config.pp, self.config.tp,
                self.config.dp, self.config.micro_batch,
                self.config.schedule)

    def to_payload(self) -> dict:
        """JSON-serializable form (see :mod:`repro.service.store`).

        The mapping's cluster is *not* embedded; the enclosing
        :meth:`PipetteResult.to_payload` record carries it once.
        """
        return {"config": self.config.to_payload(),
                "mapping": self.mapping.to_payload(),
                "estimated_latency_s": self.estimated_latency_s,
                "estimated_memory_bytes": self.estimated_memory_bytes,
                "memory_ok": self.memory_ok,
                "portfolio": [m.to_payload() for m in self.portfolio]}

    @classmethod
    def from_payload(cls, payload: dict,
                     cluster: ClusterSpec) -> "RankedConfig":
        """Inverse of :meth:`to_payload`, rebinding to ``cluster``.

        Version-1/2 payloads carry no ``portfolio`` key; they
        rehydrate with an empty one (single-survivor warm starts,
        exactly the pre-portfolio behaviour).
        """
        return cls(
            config=ParallelConfig.from_payload(payload["config"]),
            mapping=Mapping.from_payload(payload["mapping"], cluster),
            estimated_latency_s=payload["estimated_latency_s"],
            estimated_memory_bytes=payload["estimated_memory_bytes"],
            memory_ok=payload["memory_ok"],
            portfolio=tuple(Mapping.from_payload(p, cluster)
                            for p in payload.get("portfolio", ())),
        )

    def refined(self, result: SAResult) -> "RankedConfig":
        """This entry with ``result``'s mapping, latency and portfolio."""
        return replace(self, mapping=result.mapping,
                       estimated_latency_s=result.value,
                       portfolio=tuple(m for m, _ in result.portfolio[1:]))


@dataclass
class PipetteResult:
    """Outcome of one search.

    Attributes:
        best: best feasible configuration (``None`` when nothing fits).
        ranked: feasible configurations sorted by estimated latency.
        rejected_oom: configurations the memory estimator filtered out.
        memory_check_s: wall-clock spent in the memory estimator
            (Table II row "Memory Estimation").
        annealing_s: wall-clock spent in SA (Table II row "Simulated
            Annealing"); under a parallel executor this is the *sum*
            of per-candidate annealing times, i.e. CPU time.
        total_s: end-to-end search time.

    A finished result is not mutated: the plan cache shares one
    instance among every answer it serves, and :meth:`payload_json`
    keeps its encoding.
    """

    best: RankedConfig | None
    ranked: list[RankedConfig]
    rejected_oom: int
    memory_check_s: float
    annealing_s: float
    total_s: float
    _payload_json: "str | None" = field(default=None, init=False,
                                        repr=False, compare=False)

    def to_payload(self) -> dict:
        """Versioned, JSON-serializable form of a finished search.

        The cluster every mapping is bound to is embedded exactly once
        (all entries of one result share it), so the payload is fully
        self-contained: :meth:`from_payload` needs nothing but the
        dict.  ``best`` is stored as an index into ``ranked`` — it is
        ``ranked[0]`` by construction — preserving the identity
        relation across a round trip.
        """
        cluster = self.ranked[0].mapping.cluster if self.ranked else None
        best_index = next((i for i, entry in enumerate(self.ranked)
                           if entry is self.best), None)
        payload = {
            "version": PAYLOAD_VERSION,
            "cluster": None if cluster is None else cluster.to_payload(),
            "ranked": [entry.to_payload() for entry in self.ranked],
            "best_index": best_index,
            "rejected_oom": self.rejected_oom,
            "memory_check_s": self.memory_check_s,
            "annealing_s": self.annealing_s,
            "total_s": self.total_s,
        }
        if self.best is not None and best_index is None:
            payload["best"] = self.best.to_payload()
        return payload

    def payload_json(self) -> str:
        """``json.dumps(self.to_payload(), sort_keys=True)``, encoded once.

        The first call encodes the payload and keeps the text on this
        result; every later call returns it.  The text lives exactly as
        long as the result, so a plan cache that evicts or retires the
        result drops the text with it.  The planning service's
        ``"detail": true`` answers splice it in verbatim.
        """
        if self._payload_json is None:
            self._payload_json = json.dumps(self.to_payload(),
                                            sort_keys=True)
        return self._payload_json

    @classmethod
    def from_payload(cls, payload: dict) -> "PipetteResult":
        """Inverse of :meth:`to_payload`."""
        version = payload.get("version")
        if version not in READABLE_PAYLOAD_VERSIONS:
            readable = ", ".join(str(v) for v in READABLE_PAYLOAD_VERSIONS)
            raise ValueError(
                f"unsupported PipetteResult payload version {version!r} "
                f"(this build reads versions {readable})"
            )
        cluster = None if payload["cluster"] is None \
            else ClusterSpec.from_payload(payload["cluster"])
        ranked = [RankedConfig.from_payload(entry, cluster)
                  for entry in payload["ranked"]]
        if payload["best_index"] is not None:
            best = ranked[payload["best_index"]]
        elif payload.get("best") is not None:
            best = RankedConfig.from_payload(payload["best"], cluster)
        else:
            best = None
        return cls(best=best, ranked=ranked,
                   rejected_oom=payload["rejected_oom"],
                   memory_check_s=payload["memory_check_s"],
                   annealing_s=payload["annealing_s"],
                   total_s=payload["total_s"])


# ---------------------------------------------------------------- work units


@dataclass(frozen=True)
class SearchContext:
    """Everything a per-candidate work unit needs, in picklable form.

    Work units receive the context plus one candidate, so one search
    can fan its candidate set over a process pool.  The pool pickles
    the context once per chunk of candidates, and one ``map`` call
    makes at most one chunk per worker.

    ``record_flight`` asks :func:`refine_unit` to ride a flight
    recorder along each candidate's anneal and ship the telemetry
    payload home.  It is excluded from comparison (``compare=False``)
    so turning tracing on can never change a request fingerprint or
    split the plan cache's key space.
    """

    cluster: ClusterSpec
    model: TransformerConfig
    bandwidth: BandwidthMatrix
    profile: ComputeProfile
    memory_estimator: MemoryEstimator | None
    sa: SAOptions
    record_flight: bool = field(default=False, compare=False)


def naive_mapping(ctx: SearchContext, config: ParallelConfig) -> Mapping:
    """The framework-default sequential placement for ``config``."""
    grid = WorkerGrid(pp=config.pp, tp=config.tp, dp=config.dp)
    return sequential_mapping(grid, ctx.cluster)


def candidate_kernel(ctx: SearchContext,
                     config: ParallelConfig) -> LatencyKernel:
    """The vectorized objective for ``config``'s mapping search.

    Bit-identical to the reference ``pipette_latency`` on every mapping
    (see :mod:`repro.core.latency_kernel`), but evaluations after the
    one-off precomputation are several times cheaper — every scoring
    pass of the search and the warm polishes runs against it.
    """
    return pipette_kernel(ctx.model, config, ctx.cluster, ctx.bandwidth,
                          ctx.profile)


def memory_check_unit(ctx: SearchContext, config: ParallelConfig) -> float:
    """Work unit: predicted per-GPU memory of one configuration."""
    return ctx.memory_estimator.predict_bytes(ctx.model, config)


def score_unit(ctx: SearchContext, item: tuple) -> RankedConfig:
    """Work unit: naive-mapping latency of one survivor.

    ``item`` is ``(config, predicted_bytes | None, memory_ok)``; the
    sequential mapping is scored on the compiled kernel.
    """
    config, predicted, memory_ok = item
    mapping = naive_mapping(ctx, config)
    return RankedConfig(
        config=config, mapping=mapping,
        estimated_latency_s=candidate_kernel(ctx, config).evaluate_perm(
            mapping.block_to_slot),
        estimated_memory_bytes=predicted,
        memory_ok=memory_ok,
    )


def refine_unit(ctx: SearchContext, item: tuple
                ) -> "tuple[RankedConfig, float, dict | None]":
    """Work unit: SA worker dedication for one leader.

    ``item`` is ``(entry, seed)``; the explicit seed (assigned from
    the entry's rank in the deterministically sorted leaderboard) makes
    the result independent of which pool worker runs the unit.
    Returns ``(refined entry, annealing seconds, flight payload)``,
    where the flight payload is the candidate's
    :meth:`~repro.obs.recorder.FlightRecorder.to_payload` telemetry
    when ``ctx.record_flight`` is set and ``None`` otherwise — a plain
    dict, so it crosses the process pool's pickle boundary like the
    rest of the result.

    The annealing runs against a compiled :func:`candidate_kernel`;
    the kernel's bit-identical guarantee keeps serial and process-pool
    refinements — and any plans cached from before the kernel existed
    — byte-identical.  The flight recorder observes without touching
    the RNG, so ``record_flight`` never changes the refined mappings
    either.
    """
    entry, seed = item
    recorder = FlightRecorder() if ctx.record_flight else None
    result = anneal_mapping(
        entry.mapping,
        candidate_kernel(ctx, entry.config),
        ctx.sa.with_seed(seed),
        recorder=recorder,
    )
    return (entry.refined(result), result.elapsed_s,
            None if recorder is None else recorder.to_payload())


def run_units(fn, ctx: SearchContext, items: "list", executor=None) -> list:
    """``[fn(ctx, item) for item in items]``, inline or via an executor.

    ``executor`` is anything exposing ``map(fn, items)`` (see
    :class:`repro.service.executor.CandidateExecutor`); it receives
    ``fn`` with ``ctx`` bound.  ``None``, or no items, runs the units
    inline.  Both paths return results in item order, so they are
    interchangeable.
    """
    if executor is None or not items:
        return [fn(ctx, item) for item in items]
    return executor.map(partial(fn, ctx), items)


# -------------------------------------------------------------- configurator


class PipetteConfigurator:
    """The Pipette automatic configurator (Algorithm 1).

    Args:
        cluster: nominal cluster description.
        model: architecture to train.
        bandwidth: *profiled* bandwidth matrix ``BW`` (line 1).
        profile: profiled compute times for this model on this GPU.
        memory_estimator: fitted estimator; ``None`` disables the
            memory check (not recommended; exists for ablations).
        options: search behaviour.
    """

    def __init__(self, cluster: ClusterSpec, model: TransformerConfig,
                 bandwidth: BandwidthMatrix, profile: ComputeProfile,
                 memory_estimator: MemoryEstimator | None = None,
                 options: PipetteOptions | None = None) -> None:
        if bandwidth.n_gpus != cluster.n_gpus:
            raise ValueError(
                f"bandwidth matrix covers {bandwidth.n_gpus} GPUs but the "
                f"cluster has {cluster.n_gpus}"
            )
        self.cluster = cluster
        self.model = model
        self.bandwidth = bandwidth
        self.profile = profile
        self.memory_estimator = memory_estimator
        self.options = options or PipetteOptions()

    # ------------------------------------------------------------------ api

    def context(self) -> SearchContext:
        """The picklable work-unit context of this configurator.

        Flight recording follows the process-wide tracer switch: a
        traced search asks its refinement units for telemetry, an
        untraced one runs the unmodified fast path.
        """
        return SearchContext(
            cluster=self.cluster, model=self.model, bandwidth=self.bandwidth,
            profile=self.profile, memory_estimator=self.memory_estimator,
            sa=self.options.sa,
            record_flight=TRACER.enabled,
        )

    def estimate_latency(self, config: ParallelConfig,
                         mapping: Mapping | None = None) -> float:
        """Latency-estimator value for one configuration/mapping."""
        if mapping is None:
            mapping = naive_mapping(self.context(), config)
        return pipette_latency(self.model, config, mapping, self.bandwidth,
                               self.profile)

    def search(self, global_batch: int,
               memory_limit_bytes: float | None = None,
               micro_batches: "list[int] | None" = None,
               schedules: "tuple[str, ...] | list[str] | None" = None,
               executor=None) -> PipetteResult:
        """Run Algorithm 1 and return the ranked feasible configurations.

        Composes the three stages plus a best-effort fallback.

        Args:
            global_batch: ``bs_global``.
            memory_limit_bytes: ``M_limit``; defaults to the cluster
                GPU's physical memory.
            micro_batches: restrict the swept microbatch sizes (the
                sensitivity studies of Fig. 9 pin ``bs_micro``).
            schedules: pipeline-schedule names to sweep as an extra
                search dimension; defaults to 1F1B only (the paper's
                assumption), which reproduces the pre-schedule search
                bit for bit.
            executor: optional candidate executor (see
                :func:`run_units`); fans the memory check, naive
                scoring and SA refinement over a worker pool.  Results
                are identical to the serial search.
        """
        t_start = time.perf_counter()
        limit = memory_limit_bytes if memory_limit_bytes is not None \
            else self.cluster.gpu_memory_bytes
        configs = self.candidates(global_batch, micro_batches, schedules)
        t0 = time.perf_counter()
        survivors, predicted = self.memory_pass(configs, limit, executor)
        memory_s = 0.0 if predicted is None else time.perf_counter() - t0
        rejected = len(configs) - len(survivors)
        if not survivors and configs:
            # Even the raw limit admits nothing by the estimator's
            # account (its error can push a lone near-limit candidate
            # over).  A practical tool still answers: recommend the
            # least-memory candidates, flagged as best-effort.
            by_memory = sorted(zip(configs, predicted), key=lambda cp: cp[1])
            survivors = [(c, p, False) for c, p in by_memory[:3]]
        ranked, annealing_s = self.rank(survivors, executor)
        return PipetteResult(
            best=ranked[0] if ranked else None,
            ranked=ranked,
            rejected_oom=rejected,
            memory_check_s=memory_s,
            annealing_s=annealing_s,
            total_s=time.perf_counter() - t_start,
        )

    # --------------------------------------------------------------- stages

    def candidates(self, global_batch: int,
                   micro_batches: "list[int] | None" = None,
                   schedules: "tuple[str, ...] | list[str] | None" = None,
                   ) -> "list[ParallelConfig]":
        """Stage 1: every ``(pp, tp, dp, micro-batch, schedule)`` candidate."""
        return enumerate_parallel_configs(
            self.cluster.n_gpus, global_batch,
            gpus_per_node=self.cluster.gpus_per_node,
            n_layers=self.model.n_layers,
            micro_batches=micro_batches,
            max_micro_batch=self.options.max_micro_batch,
            schedules=schedules,
        )

    def memory_pass(self, configs: "list[ParallelConfig]", limit: float,
                    executor=None) -> "tuple[list[tuple], list[float] | None]":
        """Stage 2 (line 7): ``(survivors, predictions)`` under ``limit``.

        Survivors are ``(config, bytes | None, True)`` items for
        :meth:`rank`; predictions are ``None`` without an estimator,
        which admits every candidate.
        """
        if self.memory_estimator is None:
            return [(config, None, True) for config in configs], None
        with TRACER.span("search.memory_check", candidates=len(configs)):
            predicted = run_units(memory_check_unit, self.context(), configs,
                                  executor)
        margin = self.memory_estimator.soft_margin
        survivors = [(c, p, True) for c, p in zip(configs, predicted)
                     if p <= margin * limit]
        if not survivors and margin < 1.0:
            # The soft margin can exclude a lone configuration sitting
            # just under the limit (e.g. very large batches on a full
            # memory envelope): degrade gracefully to the raw limit.
            survivors = [(c, p, True) for c, p in zip(configs, predicted)
                         if p <= limit]
        return survivors, predicted

    def rank(self, survivors: "list[tuple]",
             executor=None) -> "tuple[list[RankedConfig], float]":
        """Stage 3 (lines 9-15): naive-mapping score, then SA on the leaders.

        Returns the ranking and the summed annealing seconds.
        """
        ctx = self.context()
        with TRACER.span("search.score", candidates=len(survivors)):
            scored = run_units(score_unit, ctx, survivors, executor)
        scored.sort(key=lambda r: r.sort_key)
        if not (self.options.use_worker_dedication and scored):
            return scored, 0.0
        n_refine = len(scored) if self.options.sa_top_k == 0 \
            else min(self.options.sa_top_k, len(scored))
        entries = [(entry, self.options.seed + rank)
                   for rank, entry in enumerate(scored[:n_refine])]
        with TRACER.span("search.refine",
                         candidates=len(entries)) as refine_span:
            refined_rows = run_units(refine_unit, ctx, entries, executor)
            for entry, elapsed, flight in refined_rows:
                self._record_candidate(refine_span, entry, elapsed, flight)
        refined = [entry for entry, _, _ in refined_rows]
        return (sorted(refined + scored[n_refine:], key=lambda r: r.sort_key),
                sum(elapsed for _, elapsed, _ in refined_rows))

    # ------------------------------------------------------------- internal

    @staticmethod
    def _record_candidate(refine_span, entry: RankedConfig,
                          elapsed_s: float, flight: "dict | None") -> None:
        """Synthesize one candidate's child span from its returned telemetry.

        The anneal itself may have run in another process, so its span
        cannot be opened there; the work unit reports elapsed time and
        the flight payload home, and the parent back-dates a
        ``search.candidate`` span under the refine phase.
        """
        attributes = {
            "config": f"pp{entry.config.pp}·tp{entry.config.tp}"
                      f"·dp{entry.config.dp}·mb{entry.config.micro_batch}",
            "schedule": entry.config.schedule,
            "estimated_latency_s": entry.estimated_latency_s,
        }
        if flight is not None:
            attributes["anneal_iterations"] = flight["iterations"]
            attributes["anneal_evaluations"] = flight["evaluations"]
            attributes["exit_reason"] = flight["exit_reason"]
            attributes["flight"] = flight
        TRACER.record_span("search.candidate", elapsed_s,
                           parent=refine_span, **attributes)


def pipette_l(cluster: ClusterSpec, model: TransformerConfig,
              bandwidth: BandwidthMatrix, profile: ComputeProfile,
              memory_estimator: MemoryEstimator,
              options: PipetteOptions | None = None) -> PipetteConfigurator:
    """The PPT-L ablation: latency + memory estimators, naive mapping."""
    base = options or PipetteOptions()
    return PipetteConfigurator(
        cluster, model, bandwidth, profile, memory_estimator,
        options=replace(base, use_worker_dedication=False),
    )


def pipette_lf(cluster: ClusterSpec, model: TransformerConfig,
               bandwidth: BandwidthMatrix, profile: ComputeProfile,
               memory_estimator: MemoryEstimator,
               options: PipetteOptions | None = None) -> PipetteConfigurator:
    """The full Pipette (PPT-LF): adds fine-grained worker dedication."""
    base = options or PipetteOptions()
    return PipetteConfigurator(
        cluster, model, bandwidth, profile, memory_estimator,
        options=replace(base, use_worker_dedication=True),
    )
