"""Elastic pipeline templates: precomputed plans across node counts.

Pipette's elastic path (:mod:`repro.service.replan`) answers a node
failure with mapping surgery plus a warm re-anneal — milliseconds to
seconds of search on the critical recovery path.  Oobleck's insight is
that the post-failure configuration space is enumerable *before* any
failure happens: a cluster of homogeneous nodes can only shrink to a
node count ``n`` in a known range, so the best parallelization for
every ``n`` can be precomputed into a library of *pipeline templates*.
"Node died, what now" then becomes a library lookup, with the annealer
only polishing slot assignment onto the surviving nodes.

:class:`PipelineTemplateGenerator` runs, per node count, the cold
search's own stages (:meth:`~repro.core.configurator.PipetteConfigurator.candidates`,
``memory_pass`` and ``rank``: the one naive scorer, then SA on the
leaders with the same per-rank seeds) on the scaled-down cluster, and
collects the best distinct :class:`PipelineTemplate`\\ s — ``(pp, tp,
dp, micro-batch, schedule)`` plus stage→layer split — into a versioned
:class:`TemplateLibrary`.  So a template hit reproduces what the cold
search would have found: the library trades storage for recovery-path
latency, never answer quality.  Only the template policy lives here:
no best-effort plans, dedup by shape, a per-count cut.

Node counts with *no* feasible template record an explicit
infeasibility reason instead of being silently absent, so "the library
does not cover n" and "n cannot host this model" stay distinguishable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.fabric import BandwidthMatrix
from repro.cluster.topology import ClusterSpec
from repro.core.configurator import (
    PipetteConfigurator,
    PipetteOptions,
    RankedConfig,
)
from repro.core.memory_estimator import MemoryEstimator
from repro.model.memory import stage_layer_count
from repro.model.transformer import TransformerConfig
from repro.obs.trace import TRACER
from repro.parallel.config import ParallelConfig
from repro.parallel.mapping import Mapping, WorkerGrid
from repro.profiling.profile_run import ComputeProfile

#: Schema version of :meth:`TemplateLibrary.to_payload`.  Readers
#: refuse versions they do not understand rather than silently
#: mis-deserializing (same contract as
#: :data:`repro.core.configurator.PAYLOAD_VERSION`).
TEMPLATE_LIBRARY_VERSION = 1

#: Library payload versions :meth:`TemplateLibrary.from_payload` reads.
READABLE_TEMPLATE_VERSIONS = (TEMPLATE_LIBRARY_VERSION,)

#: Templates kept per node count.  The leader answers the failover;
#: the runner-ups survive request-side restrictions (a pinned
#: microbatch or schedule) that disqualify the leader.
DEFAULT_TEMPLATES_PER_COUNT = 4


def stage_layer_split(n_layers: int, pp: int) -> "tuple[int, ...]":
    """Layers hosted by each pipeline stage under the balanced split.

    The per-stage view of :func:`repro.model.memory.stage_layer_count`:
    the first ``n_layers % pp`` stages take one extra layer.
    """
    return tuple(stage_layer_count(n_layers, pp, s) for s in range(pp))


@dataclass(frozen=True)
class PipelineTemplate:
    """One precomputed parallelization for one node count.

    Attributes:
        n_nodes: node count this template was generated for.
        config: the parallelization (carries microbatch, global batch
            and pipeline schedule alongside ``pp``/``tp``/``dp``).
        stage_layers: layers hosted by each pipeline stage (length
            ``config.pp``), the balanced split the memory and latency
            estimators assume.
        block_to_slot: annealed block permutation on the
            ``n_nodes``-node cluster — the placement the generator's
            refinement found, stored so instantiation starts the
            polish from a learned mapping rather than the framework
            default.
        estimated_latency_s: latency-estimator value of that placement
            at generation time (against the generation-time fabric).
        estimated_memory_bytes: memory-estimator prediction (``None``
            when the library was generated without an estimator).
        memory_ok: whether the memory check passed.  Libraries only
            admit feasible templates, so this is ``True`` for every
            generated entry; it is carried explicitly so rehydrated
            instantiations can answer :class:`RankedConfig` contracts
            without guessing.
        portfolio: runner-up permutations from the generation anneal,
            best first — elastic polish candidates, exactly like
            :attr:`RankedConfig.portfolio`.
    """

    n_nodes: int
    config: ParallelConfig
    stage_layers: "tuple[int, ...]"
    block_to_slot: "tuple[int, ...]"
    estimated_latency_s: float
    estimated_memory_bytes: float | None
    memory_ok: bool
    portfolio: "tuple[tuple[int, ...], ...]" = ()

    @property
    def key(self) -> tuple:
        """Dedup identity: the parallelization shape, schedule included."""
        return (self.config.pp, self.config.tp, self.config.dp,
                self.config.micro_batch, self.config.schedule)

    @property
    def grid(self) -> WorkerGrid:
        """The worker grid this template's permutation indexes."""
        return WorkerGrid(pp=self.config.pp, tp=self.config.tp,
                          dp=self.config.dp)

    def instantiate(self, cluster: ClusterSpec) -> RankedConfig:
        """Bind the template onto a concrete surviving cluster.

        ``cluster`` must have exactly :attr:`n_nodes` nodes of the
        family the library was generated for; the stored permutation
        and portfolio rebind as :class:`~repro.parallel.mapping.Mapping`
        objects ready for the warm slot-assignment polish.
        """
        if cluster.n_nodes != self.n_nodes:
            raise ValueError(
                f"template was generated for {self.n_nodes} nodes but the "
                f"cluster has {cluster.n_nodes}"
            )
        grid = self.grid
        return RankedConfig(
            config=self.config,
            mapping=Mapping(grid, cluster,
                            np.array(self.block_to_slot, dtype=np.int64)),
            estimated_latency_s=self.estimated_latency_s,
            estimated_memory_bytes=self.estimated_memory_bytes,
            memory_ok=self.memory_ok,
            portfolio=tuple(
                Mapping(grid, cluster, np.array(perm, dtype=np.int64))
                for perm in self.portfolio),
        )

    def to_payload(self) -> dict:
        """JSON-serializable form (see :class:`TemplateLibrary`)."""
        return {
            "n_nodes": self.n_nodes,
            "config": self.config.to_payload(),
            "stage_layers": list(self.stage_layers),
            "block_to_slot": list(self.block_to_slot),
            "estimated_latency_s": self.estimated_latency_s,
            "estimated_memory_bytes": self.estimated_memory_bytes,
            "memory_ok": self.memory_ok,
            "portfolio": [list(perm) for perm in self.portfolio],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PipelineTemplate":
        """Inverse of :meth:`to_payload`."""
        return cls(
            n_nodes=payload["n_nodes"],
            config=ParallelConfig.from_payload(payload["config"]),
            stage_layers=tuple(payload["stage_layers"]),
            block_to_slot=tuple(payload["block_to_slot"]),
            estimated_latency_s=payload["estimated_latency_s"],
            estimated_memory_bytes=payload["estimated_memory_bytes"],
            memory_ok=payload["memory_ok"],
            portfolio=tuple(tuple(perm)
                            for perm in payload.get("portfolio", ())),
        )


@dataclass
class TemplateLibrary:
    """Ranked pipeline templates for every node count of a family.

    One library binds a ``(model, cluster family, global batch)``
    triple: every template inside it plans the same model at the same
    global batch on ``n`` nodes of the same node hardware.  Lookups
    that do not match the binding miss rather than answering for the
    wrong workload.

    Attributes:
        model_name: catalog name of the model the templates plan.
        cluster_name: name of the cluster family (the full-size spec
            the generator scaled down).
        gpus_per_node: GPUs per node of the family.
        global_batch: global batch every template was planned for.
        min_nodes / max_nodes: inclusive node-count range generated.
        templates: ranked (best-first) templates per covered node
            count.
        infeasible: explicit reason per *uncovered* node count in
            range — every ``n`` in ``[min_nodes, max_nodes]`` appears
            in exactly one of the two maps.
    """

    model_name: str
    cluster_name: str
    gpus_per_node: int
    global_batch: int
    min_nodes: int
    max_nodes: int
    templates: "dict[int, tuple[PipelineTemplate, ...]]" = \
        field(default_factory=dict)
    infeasible: "dict[int, str]" = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Total templates held, across all node counts."""
        return sum(len(entries) for entries in self.templates.values())

    @property
    def covered_counts(self) -> "tuple[int, ...]":
        """Node counts with at least one template, ascending."""
        return tuple(sorted(self.templates))

    def matches(self, model_name: str, global_batch: int) -> bool:
        """Whether a request for ``(model, batch)`` can use this library."""
        return (model_name == self.model_name
                and int(global_batch) == self.global_batch)

    def templates_for(self, n_nodes: int) -> "tuple[PipelineTemplate, ...]":
        """Ranked templates for ``n_nodes`` (empty when uncovered)."""
        return self.templates.get(int(n_nodes), ())

    def infeasible_reason(self, n_nodes: int) -> str | None:
        """Why ``n_nodes`` has no templates, when generation said so."""
        return self.infeasible.get(int(n_nodes))

    def lookup(self, n_nodes: int,
               micro_batches=None,
               schedules=None,
               memory_limit_bytes: float | None = None,
               ) -> PipelineTemplate | None:
        """Best template for ``n_nodes`` honoring request restrictions.

        Returns the highest-ranked template whose microbatch /
        schedule / predicted memory pass the caller's restrictions, or
        ``None`` (a miss) when the node count is uncovered or every
        template is disqualified.
        """
        micro = None if micro_batches is None \
            else {int(m) for m in micro_batches}
        sched = None if schedules is None else set(schedules)
        for template in self.templates_for(n_nodes):
            if micro is not None and template.config.micro_batch not in micro:
                continue
            if sched is not None and template.config.schedule not in sched:
                continue
            if memory_limit_bytes is not None \
                    and template.estimated_memory_bytes is not None \
                    and template.estimated_memory_bytes > memory_limit_bytes:
                continue
            return template
        return None

    def to_payload(self) -> dict:
        """Versioned, JSON-serializable form of the whole library."""
        return {
            "version": TEMPLATE_LIBRARY_VERSION,
            "model_name": self.model_name,
            "cluster_name": self.cluster_name,
            "gpus_per_node": self.gpus_per_node,
            "global_batch": self.global_batch,
            "min_nodes": self.min_nodes,
            "max_nodes": self.max_nodes,
            "templates": {str(n): [t.to_payload() for t in entries]
                          for n, entries in sorted(self.templates.items())},
            "infeasible": {str(n): reason for n, reason
                           in sorted(self.infeasible.items())},
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TemplateLibrary":
        """Inverse of :meth:`to_payload`; refuses unknown versions."""
        version = payload.get("version")
        if version not in READABLE_TEMPLATE_VERSIONS:
            readable = ", ".join(str(v) for v in READABLE_TEMPLATE_VERSIONS)
            raise ValueError(
                f"unsupported TemplateLibrary payload version {version!r} "
                f"(this build reads versions {readable})"
            )
        return cls(
            model_name=payload["model_name"],
            cluster_name=payload["cluster_name"],
            gpus_per_node=payload["gpus_per_node"],
            global_batch=payload["global_batch"],
            min_nodes=payload["min_nodes"],
            max_nodes=payload["max_nodes"],
            templates={int(n): tuple(PipelineTemplate.from_payload(t)
                                     for t in entries)
                       for n, entries in payload["templates"].items()},
            infeasible={int(n): reason
                        for n, reason in payload["infeasible"].items()},
        )

    def to_json(self) -> str:
        """Canonical JSON text — the byte-identical round-trip form.

        Sorted keys and fixed separators make serialization a pure
        function of content: ``TemplateLibrary.from_json(s).to_json()
        == s`` for any ``s`` this method produced.
        """
        return json.dumps(self.to_payload(), sort_keys=True,
                          separators=(",", ": "))

    @classmethod
    def from_json(cls, text: str) -> "TemplateLibrary":
        """Inverse of :meth:`to_json`."""
        return cls.from_payload(json.loads(text))


# ---------------------------------------------------------------- generation


def _as_template(entry: RankedConfig, n_nodes: int,
                 n_layers: int) -> PipelineTemplate:
    """Freeze one ranked search entry into a storable template."""
    return PipelineTemplate(
        n_nodes=n_nodes,
        config=entry.config,
        stage_layers=stage_layer_split(n_layers, entry.config.pp),
        block_to_slot=tuple(int(s) for s in entry.mapping.block_to_slot),
        estimated_latency_s=entry.estimated_latency_s,
        estimated_memory_bytes=entry.estimated_memory_bytes,
        memory_ok=entry.memory_ok,
        portfolio=tuple(tuple(int(s) for s in m.block_to_slot)
                        for m in entry.portfolio),
    )


class PipelineTemplateGenerator:
    """Enumerate and rank pipeline templates across node counts.

    Args:
        model: architecture the templates plan.
        cluster: the *full-size* cluster family; smaller node counts
            are the same hardware scaled down
            (:meth:`~repro.cluster.topology.ClusterSpec.scaled_to`).
        bandwidth: profiled matrix of the full cluster.  Scaled-down
            scoring restricts it to the first ``n`` nodes' GPUs — the
            homogeneous-on-paper approximation; instantiation-time
            polish re-scores against the live survivor matrix anyway.
        profile: profiled compute times for this model on this GPU.
        memory_estimator: fitted estimator; ``None`` disables the
            memory check (every enumerated configuration is admitted).
        options: search behaviour — annealing budget, ``sa_top_k``
            refinement width and seeds, exactly as the cold search
            uses them.
    """

    def __init__(self, model: TransformerConfig, cluster: ClusterSpec,
                 bandwidth: BandwidthMatrix, profile: ComputeProfile,
                 memory_estimator: MemoryEstimator | None = None,
                 options: PipetteOptions | None = None) -> None:
        if bandwidth.n_gpus != cluster.n_gpus:
            raise ValueError(
                f"bandwidth matrix covers {bandwidth.n_gpus} GPUs but the "
                f"cluster has {cluster.n_gpus}"
            )
        self.model = model
        self.cluster = cluster
        self.bandwidth = bandwidth
        self.profile = profile
        self.memory_estimator = memory_estimator
        self.options = options or PipetteOptions()

    def generate(self, global_batch: int,
                 min_nodes: int = 1, max_nodes: int | None = None,
                 memory_limit_bytes: float | None = None,
                 micro_batches: "list[int] | None" = None,
                 schedules: "tuple[str, ...] | list[str] | None" = None,
                 templates_per_count: int = DEFAULT_TEMPLATES_PER_COUNT,
                 executor=None) -> TemplateLibrary:
        """Build the library for node counts ``[min_nodes, max_nodes]``.

        Per node count this composes the stages
        :meth:`~repro.core.configurator.PipetteConfigurator.search`
        runs — enumerate, memory pass, score and refine the leaders
        with SA — on the scaled-down cluster, then keeps the
        ``templates_per_count`` best distinct shapes.  Node counts
        where nothing survives record an explicit infeasibility reason.

        Args:
            global_batch: ``bs_global`` every template plans for.
            min_nodes / max_nodes: inclusive node-count range;
                ``max_nodes`` defaults to the full cluster.
            memory_limit_bytes: per-GPU limit; defaults to the GPU's
                physical memory.
            micro_batches / schedules: sweep restrictions, as in the
                cold search.
            templates_per_count: ranked templates kept per node count.
            executor: optional candidate executor; the memory check,
                scoring and refinement passes fan over it per node
                count.
        """
        if max_nodes is None:
            max_nodes = self.cluster.n_nodes
        if not 1 <= min_nodes <= max_nodes <= self.cluster.n_nodes:
            raise ValueError(
                f"node range [{min_nodes}, {max_nodes}] outside "
                f"[1, {self.cluster.n_nodes}]"
            )
        if templates_per_count < 1:
            raise ValueError("templates_per_count must be >= 1")
        library = TemplateLibrary(
            model_name=self.model.name,
            cluster_name=self.cluster.name,
            gpus_per_node=self.cluster.gpus_per_node,
            global_batch=int(global_batch),
            min_nodes=int(min_nodes),
            max_nodes=int(max_nodes),
        )
        with TRACER.span("templates.generate", model=self.model.name,
                         cluster=self.cluster.name,
                         min_nodes=min_nodes, max_nodes=max_nodes,
                         global_batch=int(global_batch)) as span:
            for n_nodes in range(min_nodes, max_nodes + 1):
                templates, reason = self._generate_for_count(
                    n_nodes, int(global_batch), memory_limit_bytes,
                    micro_batches, schedules, templates_per_count, executor)
                if templates:
                    library.templates[n_nodes] = tuple(templates)
                else:
                    library.infeasible[n_nodes] = reason
            span.set_attribute("templates", library.size)
            span.set_attribute("covered_counts",
                               list(library.covered_counts))
        return library

    # ------------------------------------------------------------- internal

    def _generate_for_count(self, n_nodes: int, global_batch: int,
                            memory_limit_bytes, micro_batches, schedules,
                            templates_per_count: int, executor
                            ) -> "tuple[list[PipelineTemplate], str | None]":
        """Templates for one node count, or an infeasibility reason."""
        sub_cluster = self.cluster.scaled_to(n_nodes)
        if n_nodes == self.cluster.n_nodes:
            sub_bw = self.bandwidth
        else:
            sub_bw = self.bandwidth.restrict(range(sub_cluster.n_gpus))
        configurator = PipetteConfigurator(
            sub_cluster, self.model, sub_bw, self.profile,
            self.memory_estimator, options=self.options)
        limit = memory_limit_bytes if memory_limit_bytes is not None \
            else sub_cluster.gpu_memory_bytes
        with TRACER.span("templates.node_count", n_nodes=n_nodes) as span:
            configs = configurator.candidates(global_batch, micro_batches,
                                              schedules)
            if not configs:
                reason = (
                    f"no (pp, tp, dp, micro-batch) factorization of "
                    f"{sub_cluster.n_gpus} GPUs fits global batch "
                    f"{global_batch} for a {self.model.n_layers}-layer model"
                )
                span.set_attribute("infeasible", reason)
                return [], reason
            survivors, predicted = configurator.memory_pass(configs, limit,
                                                            executor)
            if not survivors:
                # Unlike the cold search's best-effort fallback, a
                # template library never admits a plan the estimator
                # believes cannot run: failover must not trade a dead
                # node for an OOM.
                reason = (
                    f"all {len(configs)} enumerated configurations "
                    f"predicted over the memory limit "
                    f"({limit / 2**30:.1f} GiB/GPU; lightest needs "
                    f"{min(predicted) / 2**30:.1f} GiB)"
                )
                span.set_attribute("infeasible", reason)
                return [], reason
            ranked, _ = configurator.rank(survivors, executor)

            templates: "list[PipelineTemplate]" = []
            seen: set = set()
            for entry in ranked:
                template = _as_template(entry, n_nodes, self.model.n_layers)
                if template.key in seen:
                    continue
                seen.add(template.key)
                templates.append(template)
                if len(templates) >= templates_per_count:
                    break
            span.set_attribute("templates", len(templates))
            span.set_attribute("candidates", len(configs))
            return templates, None
