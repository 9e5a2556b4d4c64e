"""Vectorized latency objective for the annealer hot path.

Simulated annealing (§IV, Algorithm 1 lines 9-15) spends its entire
budget calling the latency estimator: every proposed move pays a full
:func:`repro.core.latency_model.latency_with_options` evaluation, whose
reference implementation walks the ``(pp, tp, dp)`` communicator groups
in nested Python loops and constructs a fresh
:class:`~repro.parallel.mapping.Mapping` per move.

For a *fixed* ``(model, config, cluster, profile, options)`` tuple,
almost everything in Eqs. (3)-(6) is independent of the block
permutation:

* message sizes (``msg_PP``, per-stage ``msg_DP``, the tensor-parallel
  all-reduce payload) and their alpha-beta coefficients,
* the profiled compute scalar ``C`` (with its recompute factors),
* the per-slot TP-group bandwidth minima (a TP group always occupies
  one slot of ``tp`` consecutive GPUs, whichever block lands there),
* the slot-pair bandwidth tables ``matrix[s1*tp + y, s2*tp + y]`` that
  the pipeline-chain and data-parallel terms read through,
* the slot-GPU and node-of-slot tables and the stage-major block
  layout (:func:`repro.parallel.mapping.slot_gpu_index`,
  :func:`repro.parallel.mapping.slot_node_index`,
  :meth:`repro.parallel.mapping.WorkerGrid.stage_blocks`).

:class:`LatencyKernel` hoists all of that into ``__init__`` and reduces
one objective evaluation to a handful of NumPy gathers and reductions
over the raw permutation array — no Python-level group loops, no
``Mapping`` construction.  Pair gathers read the slot-pair tables at
``perm[src] * n_slots + perm[dst]`` through precomputed flat position
tables (pipeline hops, ring pairs), shared by :meth:`evaluate_perm`
and :meth:`evaluate_batch`.

**Minimum first.** The TP straggler term, and on the
one-slot-per-node path each stage's ring term, is a maximum over
groups of ``f(bw) = a * (c / (bw * GB))`` with ``a, c >= 0``.  Each
IEEE step of ``f`` is monotone for ``bw >= 0``, so ``f`` never rises
with ``bw`` and ``max_i f(bw_i) == f(min_i bw_i)`` exactly.  The
kernel reduces the gathered bandwidths first and applies ``f`` once.
It refuses a matrix with a NaN, zero or negative entry through the
reference's own check
(:func:`~repro.core.latency_model.refuse_unusable_bandwidth`), so both
paths answer a failed measurement or a dead link with the same
``ValueError``.
With ``pp <= 2`` the straggler sees every slot, so its
term is a compile-time constant.  On 16-node Table-1 presets this
takes a one-slot-per-node ``evaluate_perm`` from about 27 to 13-18 µs;
the path where a node holds several slots keeps its per-tensor-rank
phases (their maximum is over a sum) and runs 55-60 µs.

**Equivalence guarantee.** The kernel is not merely close to the
reference model: every floating-point expression mirrors the reference
implementation's operation order (same products, same quotients, same
reduction extrema, reached minimum-first where that is exact), so ``kernel.evaluate_perm(m.block_to_slot)`` is
*bit-identical* to ``latency_with_options(..., m, ...)`` for every
mapping.  That is what lets :func:`repro.core.annealing.anneal_mapping`
replay the exact accept/reject trajectory of the pre-kernel annealer
for the same :class:`~repro.core.annealing.SAOptions` seed — cached
plans, store round-trips, and gateway coalescing see byte-identical
results, just computed an order of magnitude faster
(``benchmarks/bench_annealing_kernel.py``).

**Batches.** :meth:`LatencyKernel.evaluate_batch` scores K
permutations per NumPy dispatch for the naive scoring pass and the
warm-start pick, each row bit-identical to :meth:`evaluate_perm`.

**The incremental contract.** Eqs. (3)-(6) decompose into
*per-component partial terms* that each depend only on a slice of the
permutation:

* the tensor-parallel straggler vector (stage 0 + last stage blocks),
* one pipeline-chain sum per ``(tensor rank, data rank)`` lane,
* one data-parallel ring term per exposure-aware stage.

:class:`IncrementalEvaluator` caches those partials for a bound
permutation and, per proposed permutation, recomputes only the touched
components — *with the exact operation order of the full evaluation*
(chain sums re-accumulate their whole lane sequentially; a stage's
ring term is recomputed whole), so its value equals ``evaluate_perm``
to the last bit.  The annealer does not use it:
:func:`repro.core.annealing.anneal_mapping` always re-scores in full.
Range moves touch about a third of the permutation, so the delta form
only pays off from roughly 128-256 blocks, while Table 1 leaders have
16-32.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.fabric import BandwidthMatrix
from repro.cluster.topology import ClusterSpec
from repro.core.latency_model import (
    LatencyModelOptions,
    refuse_unusable_bandwidth,
)
from repro.model.memory import stage_layer_count
from repro.model.transformer import TransformerConfig
from repro.parallel.config import ParallelConfig
from repro.parallel.mapping import (
    Mapping,
    WorkerGrid,
    check_slot_geometry,
    slot_gpu_index,
    slot_node_index,
)
from repro.parallel.messages import (
    TP_ALLREDUCES_PER_LAYER,
    dp_message_bytes,
    pp_message_bytes,
    tp_allreduce_bytes,
)
from repro.profiling.profile_run import ComputeProfile
from repro.units import GB


class LatencyKernel:
    """Compiled latency objective over block permutations.

    One kernel is specialized to a fixed ``(model, config, cluster,
    bandwidth, profile, options)`` tuple; :meth:`evaluate_perm` then
    scores any block permutation of that shape.  The instance is also
    callable on a :class:`~repro.parallel.mapping.Mapping`, making it a
    drop-in SA objective — :func:`repro.core.annealing.anneal_mapping`
    detects :meth:`evaluate_perm` and skips ``Mapping`` construction
    entirely.

    Args:
        model: architecture being trained.
        config: the parallelization whose mappings are scored.
        cluster: physical cluster (defines slot/node geometry).
        bandwidth: bandwidth matrix the communication terms read.
        profile: profiled compute times.
        options: ablation switches; defaults mirror
            :func:`repro.core.latency_model.latency_with_options`'s.
    """

    def __init__(self, model: TransformerConfig, config: ParallelConfig,
                 cluster: ClusterSpec, bandwidth: BandwidthMatrix,
                 profile: ComputeProfile,
                 options: LatencyModelOptions | None = None) -> None:
        options = options or LatencyModelOptions()
        grid = WorkerGrid(pp=config.pp, tp=config.tp, dp=config.dp)
        check_slot_geometry(grid, cluster)
        if bandwidth.n_gpus != cluster.n_gpus:
            raise ValueError(
                f"bandwidth matrix covers {bandwidth.n_gpus} GPUs but the "
                f"cluster has {cluster.n_gpus}"
            )
        self.model = model
        self.config = config
        self.cluster = cluster
        self.options = options
        self.grid = grid
        pp, tp, dp = config.pp, config.tp, config.dp
        n_slots = grid.n_blocks

        # ---- permutation-independent scalars -------------------------
        c = profile.max_stage_compute_time(pp, tp, config.micro_batch)
        self._tp_factor = 1.0
        if config.recompute:
            c *= 4.0 / 3.0
            self._tp_factor = 1.5
        self._c = c
        self._n_mb = config.n_microbatches
        self._eff = options.collective_efficiency
        # Resolve the schedule's analytic critical-time function once;
        # ``_finish`` calls it on every objective evaluation.
        from repro.sim.schedule import schedule_type

        self._critical_time = schedule_type(config.schedule).critical_time

        matrix = bandwidth.matrix
        refuse_unusable_bandwidth(bandwidth)
        # ``blocked[s1, y1, s2, y2] == matrix[s1*tp + y1, s2*tp + y2]``.
        blocked = matrix.reshape(n_slots, tp, n_slots, tp)

        self._n_slots = n_slots
        rows = grid.stage_blocks()                      # (pp, dp) positions

        # ---- tensor-parallel term (part of C + T_TP_com) -------------
        if tp > 1:
            # Slowest link inside each slot's TP group (the matrix
            # diagonal is +inf and never wins, matching
            # ``min_over_group``), gathered through the slot-GPU table.
            gpus = slot_gpu_index(grid, cluster)       # (n_slots, tp)
            self._tp_min_bw = matrix[gpus[:, :, None],
                                     gpus[:, None, :]].min(axis=(1, 2))
            steps = tp - 1
            self._tp_coef = 2.0 * (steps / tp) * tp_allreduce_bytes(
                model, config.micro_batch)
            self._tp_layers4 = stage_layer_count(model.n_layers, pp, 0) \
                * TP_ALLREDUCES_PER_LAYER
            # The reference model inspects stage 0 and the last stage;
            # these are the positions of their blocks in the permutation.
            self._tp_blocks = np.concatenate([rows[0], rows[-1]]) \
                if pp > 1 else rows[0]
            # Which permutation positions feed the TP straggler term —
            # :class:`IncrementalEvaluator` skips it entirely for moves
            # that touch neither the first nor the last stage.
            self._tp_touch = np.zeros(n_slots, dtype=bool)
            self._tp_touch[self._tp_blocks] = True
        # With pp <= 2 the first and last stages hold every block, so
        # the straggler sees every slot whatever the permutation: its
        # term is a constant (``None`` when it must be gathered).
        self._c_tp = None
        if tp == 1:
            self._c_tp = c
        elif pp <= 2:
            self._c_tp = float(self._c_tp_at(self._tp_min_bw.min()))

        # Flat position tables: the pair-table column of positions
        # ``a -> b`` of a permutation is ``perm[a] * n_slots + perm[b]``.
        # Pipeline hops join stage ``x``'s data rank ``z`` to stage
        # ``x + 1``'s; ring pairs join two data ranks of one stage.
        if pp > 1:
            self._pp_src, self._pp_dst = rows[:-1], rows[1:]    # (pp-1, dp)

        # ``pair_bw[y, s1, s2]``: bandwidth between tensor rank ``y``'s
        # GPUs of slots ``s1`` and ``s2`` — the table both the pipeline
        # chains and the data-parallel rings gather through (flattened
        # to ``(tp, n_slots**2)`` so hot-loop gathers are single
        # ``np.take`` calls over ``s1 * n_slots + s2`` indices).
        if pp > 1 or dp > 1:
            pair_bw = blocked.diagonal(axis1=1, axis2=3).transpose(2, 0, 1)
            flat_pair = np.ascontiguousarray(pair_bw.reshape(tp, -1))

        # ---- pipeline-parallel term (Eq. 5) --------------------------
        if pp > 1:
            hop_num = 2.0 * pp_message_bytes(model, config.micro_batch)
            self._pp_hop_flat = hop_num / (flat_pair * GB)

        # ---- data-parallel term (Eq. 6) ------------------------------
        if dp > 1:
            self._pair_flat = flat_pair
            self._node_of_slot = slot_node_index(grid, cluster)
            self._msg_dp = np.array([dp_message_bytes(model, pp, tp, stage=s)
                                     for s in range(pp)])
            self._tril = np.tril(np.ones((dp, dp), dtype=bool), -1)
            ns = pp if options.dp_exposure_aware else 1
            self._n_dp_stages = ns
            self._msg_dp_col = self._msg_dp[:ns, None]
            self._drain_steps = np.arange(1, ns)
            self._dp_src = np.repeat(rows[:ns, :, None], dp, axis=2)
            self._dp_dst = np.repeat(rows[:ns, None, :], dp, axis=1)
            # When a slot is a whole node (tp == gpus_per_node, the
            # Megatron default), every DP group has exactly one member
            # per node: the intra-node phase vanishes and the leaders
            # are all ``dp`` members — a much shorter evaluation.
            self._one_slot_per_node = cluster.gpus_per_node // tp == 1
            if self._one_slot_per_node:
                self._inter_num_all = (2.0 * (dp - 1)) * self._msg_dp[:ns]

    # ------------------------------------------------------------- evaluation

    def __call__(self, mapping: Mapping) -> float:
        """Score a mapping — the drop-in SA objective form."""
        if mapping.grid != self.grid:
            raise ValueError(
                f"kernel compiled for grid {self.grid} got {mapping.grid}"
            )
        return self.evaluate_perm(mapping.block_to_slot)

    def evaluate_perm(self, perm: np.ndarray) -> float:
        """Latency of the block permutation ``perm`` (no validation).

        ``perm`` must be a permutation of ``[0, n_blocks)``; callers in
        the annealing loop guarantee that by construction (the move set
        preserves permutations), so no per-call check is paid.
        """
        pp, dp = self.grid.pp, self.grid.dp
        perm = np.asarray(perm)
        if pp > 1 or dp > 1:
            scaled = perm * self._n_slots

        # C + T_TP_com: the straggler TP group sets the pace — the
        # slowest slot, since the term falls as bandwidth rises.
        c_tp = self._c_tp
        if c_tp is None:
            c_tp = float(self._c_tp_at(
                self._tp_min_bw.take(perm.take(self._tp_blocks)).min()))

        # Eq. (5): slowest end-to-end pipeline communication path.  The
        # running ``add.accumulate`` visits hops in chain order, so the
        # floating-point sum matches the reference's sequential
        # accumulation exactly (unlike ``np.sum``'s pairwise blocking).
        t_pp = 0.0
        if pp > 1:
            hop = self._pp_hop_flat.take(scaled.take(self._pp_src)
                                         + perm.take(self._pp_dst), axis=1)
            t_pp = float(np.add.accumulate(hop, axis=1)[:, -1].max())

        # Eq. (6): hierarchical-ring all-reduce per stage, worst tensor
        # rank; later stages net of their drain slack when
        # ``dp_exposure_aware``.
        t_dp = 0.0
        if dp > 1:
            pair = self._pair_flat.take(scaled.take(self._dp_src)
                                        + perm.take(self._dp_dst), axis=1)
            if self._one_slot_per_node:
                stage_t = self._one_slot_stage_terms(
                    pair.min(axis=(0, 2, 3)))
            else:
                stage_t = self._ring_stage_terms(
                    pair, perm.reshape(pp, dp)[:self._n_dp_stages])
            t_dp = self._exposed_dp(stage_t.tolist(), c_tp)
        return self._finish(pp, c_tp, t_pp, t_dp)

    def evaluate_batch(self, perms: np.ndarray) -> np.ndarray:
        """Latencies of K block permutations in one vectorized pass.

        ``perms`` is a ``(K, n_blocks)`` array whose rows are
        permutations of ``[0, n_blocks)``.  Every gather and reduction
        of :meth:`evaluate_perm` generalizes with a leading K axis, and
        the reductions stay per-row independent (the chain
        ``add.accumulate`` runs along the hop axis, so each lane's sum
        order is untouched) — row ``k`` of the result is therefore
        *bit-identical* to ``evaluate_perm(perms[k])``.  The point is
        dispatch amortization: a warm re-plan scores its K candidate
        starts with one NumPy call chain instead of K.
        """
        pp, dp = self.grid.pp, self.grid.dp
        perms = np.asarray(perms)
        if perms.ndim != 2 or perms.shape[1] != self.grid.n_blocks:
            raise ValueError(
                f"expected a (K, {self.grid.n_blocks}) batch of "
                f"permutations, got shape {perms.shape}"
            )
        n = perms.shape[0]
        if pp > 1 or dp > 1:
            scaled = perms * self._n_slots

        if self._c_tp is not None:
            c_tp = [self._c_tp] * n
        else:
            c_tp = self._c_tp_at(self._tp_min_bw.take(
                perms.take(self._tp_blocks, axis=1)).min(axis=1)).tolist()

        t_pp = [0.0] * n
        if pp > 1:
            hop = self._pp_hop_flat.take(scaled[:, self._pp_src]
                                         + perms[:, self._pp_dst], axis=1)
            t_pp = np.add.accumulate(hop, axis=2)[:, :, -1] \
                .max(axis=(0, 2)).tolist()

        stage_t = None
        if dp > 1:
            pair = self._pair_flat.take(scaled[:, self._dp_src]
                                        + perms[:, self._dp_dst], axis=1)
            if self._one_slot_per_node:
                stage_t = self._one_slot_stage_terms(
                    pair.min(axis=(0, 3, 4)))
            else:
                stage_t = self._ring_stage_terms(
                    pair, perms.reshape(n, pp, dp)[:, :self._n_dp_stages])
            stage_t = stage_t.tolist()

        # Combine per row with the scalar epilogue of ``evaluate_perm``
        # (same expressions on the same floats).
        out = np.empty(n)
        for i in range(n):
            t_dp = 0.0 if stage_t is None \
                else self._exposed_dp(stage_t[i], c_tp[i])
            out[i] = self._finish(pp, c_tp[i], t_pp[i], t_dp)
        return out

    # ------------------------------------------------------------- terms

    def _c_tp_at(self, bw):
        """C + T_TP_com for straggler TP groups of bandwidth ``bw``.

        The TP term ``layers * (coef / (bw * GB))`` never rises with
        ``bw`` (each IEEE operation is monotone), so its maximum over
        the straggler candidates is its value at their minimum
        bandwidth: taking the minimum first is exact, and computes the
        transform once instead of per group.  ``bw`` is one NumPy
        scalar or an array of them (one per batch row).
        """
        return self._c + self._tp_factor * (
            self._tp_layers4 * (self._tp_coef / (bw * GB)))

    def _one_slot_stage_terms(self, bw: np.ndarray) -> np.ndarray:
        """Per-stage ring terms when every slot is a whole node.

        One member per node: no intra phase, every member is its
        node's leader, and the term ``num / ((dp * bw) * GB)`` never
        rises with ``bw`` — so the worst tensor rank is the one with
        the slowest pair, and ``bw`` is each stage's minimum over all
        of its pairs and tensor ranks (the +inf diagonal never wins).
        """
        return self._inter_num_all / ((self.grid.dp * bw) * GB)

    def _ring_stage_terms(self, pair: np.ndarray,
                          slots: np.ndarray) -> np.ndarray:
        """Per-stage ring terms when a node holds several slots.

        ``slots`` holds the ``(..., ns, dp)`` slots of the
        exposure-aware stages and ``pair[y, ..., x, a, b]`` tensor rank
        ``y``'s bandwidth between data ranks ``a`` and ``b`` of stage
        ``x``; the leading ``...`` is the batch axis, if any.
        """
        nodes = np.take(self._node_of_slot, slots)            # (..., ns, dp)
        same = nodes[..., :, None] == nodes[..., None, :]     # (..., ns, dp, dp)

        # Intra-node phase: per data rank, the slowest link to a
        # same-node peer; the member attaining the node minimum
        # reproduces the reference's per-node term, the rest are
        # dominated.  A data rank's node population is its row sum
        # of ``same``.  Excluded pairs are masked to +inf, so the
        # min ranges over exactly the reference's candidate set.
        rowmin = np.where(same[None], pair, np.inf).min(axis=-1)
        k = same.sum(axis=-1)                                 # (..., ns, dp)
        intra_num = (4.0 * (k - 1)) * self._msg_dp_col
        intra = (intra_num[None] / ((k[None] * rowmin) * GB)).max(axis=-1)

        # Inter-node phase: leaders are each node's first member in
        # data-rank order (no earlier same-node occurrence).
        leader = ~((same & self._tril).any(axis=-1))          # (..., ns, dp)
        kn = leader.sum(axis=-1)                              # (..., ns)
        pairmask = leader[..., :, None] & leader[..., None, :]
        masked = np.where(pairmask[None], pair, np.inf)
        inter_bw = masked.min(axis=(-2, -1))                  # (tp, ..., ns)
        inter_num = (2.0 * (kn - 1)) * self._msg_dp[:self._n_dp_stages]
        inter = inter_num[None] / ((kn[None] * inter_bw) * GB)
        return (intra + inter).max(axis=0)                    # (..., ns)

    def _exposed_dp(self, stage_t: "list[float]", c_tp: float) -> float:
        """T_DP: the first stage's ring term, or a later stage's net of
        its drain slack when that is larger."""
        exposed = stage_t[0]
        if len(stage_t) > 1:
            backward_slack = 2.0 * c_tp / 3.0
            adj = [t - x * backward_slack
                   for x, t in enumerate(stage_t) if x]
            exposed = max(exposed, max(adj))
        return exposed / self._eff

    def _finish(self, pp: int, c_tp: float, t_pp: float,
                t_dp: float) -> float:
        if self.options.hidden_critical_path:
            # Schedule-aware Eq. (3)-(4): the schedule's analytic
            # critical time plus T_DP.  For 1F1B the resolved function
            # computes ``T_bubble * (n_mb / pp) + T_straggler``
            # verbatim, keeping the kernel bit-identical to the
            # pre-schedule implementation.
            return self._critical_time(pp, self._n_mb, c_tp, t_pp) + t_dp
        # Eq. (1): the inter-stage communication is paid only once.
        return (self._n_mb - 1) * c_tp + pp * c_tp + t_pp + t_dp


class IncrementalEvaluator:
    """Exact delta evaluation over single-move perturbations.

    The evaluator caches the permutation-dependent *partial terms* of
    one bound permutation:

    * ``t_tp`` — the TP straggler vector over the stage-0/last-stage
      block positions (``None`` when ``tp == 1``);
    * ``chain_tot`` — the accumulated pipeline-chain sum per
      ``(tensor rank, data rank)`` lane, shape ``(tp, dp)`` (``None``
      when ``pp == 1``);
    * ``stage_t`` — the data-parallel ring term per exposure-aware
      stage, shape ``(ns,)`` (``None`` when ``dp == 1``).

    :meth:`propose` recomputes only the components a candidate
    permutation touches.  Exactness rests on component independence:
    each partial term depends on a disjoint slice of the permutation
    and is recomputed *whole*, with the same expressions in the same
    order as :meth:`LatencyKernel.evaluate_perm` (a touched chain lane
    re-runs its full sequential ``add.accumulate``; a touched stage
    re-runs its full ring reduction), and the scalar epilogue combines
    the cached floats exactly as the full evaluation would.  The
    per-component results are therefore bit-identical to the full
    re-score's, and so is their combination.  No production caller
    binds one: :func:`repro.core.annealing.anneal_mapping` scores every
    proposal with :meth:`LatencyKernel.evaluate_perm`.

    Usage is a bind/propose/accept cycle::

        inc = IncrementalEvaluator(kernel)
        value = inc.bind(perm)              # full evaluation, cached
        cand = inc.propose(new_perm)        # delta evaluation
        inc.accept()                        # new_perm becomes current

    ``propose`` never mutates the bound state, so rejected moves cost
    nothing beyond their own recomputation; ``accept`` adopts the last
    proposal in O(n).
    """

    def __init__(self, kernel: LatencyKernel) -> None:
        self._k = kernel
        self.perm: "np.ndarray | None" = None
        self.value: float = 0.0
        self._t_tp = None
        self._chain_tot = None
        self._stage_t = None
        self._cand = None
        self._cand_perm = None

    # ------------------------------------------------------------ binding

    def bind(self, perm: np.ndarray) -> float:
        """Fully evaluate ``perm`` and cache its partial terms."""
        k = self._k
        pp, dp = k.grid.pp, k.grid.dp
        perm = np.array(perm, dtype=np.int64)
        self.perm = perm
        self._cand = None
        self._t_tp = self._tp_vector(perm) if k.grid.tp > 1 else None
        slots = perm.reshape(pp, dp)
        self._chain_tot = self._chain_lanes(slots, slice(None)) \
            if pp > 1 else None
        self._stage_t = self._dp_stage_terms(
            slots, np.arange(k._n_dp_stages)) if dp > 1 else None
        self.value = self._combine(self._t_tp, self._chain_tot,
                                   self._stage_t)
        return self.value

    def propose(self, perm: np.ndarray,
                touched: "np.ndarray | None" = None) -> float:
        """Value of ``perm``, recomputing only the touched components.

        ``touched`` lists the positions where ``perm`` differs from the
        bound permutation; when omitted it is derived by comparison.
        The proposal is staged — :meth:`accept` adopts it — and the
        bound state is untouched either way.
        """
        k = self._k
        pp, dp = k.grid.pp, k.grid.dp
        if touched is None:
            touched = np.flatnonzero(perm != self.perm)
        if touched.size == 0:
            self._cand = (self._t_tp, self._chain_tot, self._stage_t,
                          self.value)
            self._cand_perm = perm
            return self.value

        t_tp = self._t_tp
        if t_tp is not None and k._tp_touch[touched].any():
            t_tp = self._tp_vector(perm)

        slots = perm.reshape(pp, dp)
        chain_tot = self._chain_tot
        if chain_tot is not None:
            cols = np.unique(touched % dp)
            chain_tot = chain_tot.copy()
            chain_tot[:, cols] = self._chain_lanes(slots, cols)

        stage_t = self._stage_t
        if stage_t is not None:
            stages = np.unique(touched // dp)
            stages = stages[stages < k._n_dp_stages]
            if stages.size:
                stage_t = stage_t.copy()
                stage_t[stages] = self._dp_stage_terms(slots, stages)

        value = self._combine(t_tp, chain_tot, stage_t)
        self._cand = (t_tp, chain_tot, stage_t, value)
        self._cand_perm = perm
        return value

    def accept(self) -> None:
        """Adopt the last :meth:`propose` as the bound state."""
        if self._cand is None:
            raise RuntimeError("no staged proposal to accept")
        self.perm[:] = self._cand_perm
        self._t_tp, self._chain_tot, self._stage_t, self.value = self._cand
        self._cand = None
        self._cand_perm = None

    # --------------------------------------------------------- components

    def _tp_vector(self, perm: np.ndarray) -> np.ndarray:
        """The TP straggler vector — same gather chain as the full path."""
        k = self._k
        sel = np.take(k._tp_min_bw, np.take(perm, k._tp_blocks))
        return k._tp_layers4 * (k._tp_coef / (sel * GB))

    def _chain_lanes(self, slots: np.ndarray, cols) -> np.ndarray:
        """Accumulated chain sums of the selected data-rank lanes.

        Each lane's hops are gathered and sequentially accumulated in
        full, exactly as the full evaluation's ``add.accumulate`` does
        for that lane — lanes are independent, so recomputing a subset
        reproduces the full path's floats for those columns.
        """
        k = self._k
        sub = slots[:, cols]
        hop = np.take(k._pp_hop_flat,
                      sub[:-1] * k._n_slots + sub[1:], axis=1)
        return np.add.accumulate(hop, axis=1)[:, -1]

    def _dp_stage_terms(self, slots: np.ndarray,
                        stage_idx: np.ndarray) -> np.ndarray:
        """Ring terms of the selected stages — the full path, sliced.

        A stage's term reads only that stage's ``dp`` slots, and every
        reduction in :meth:`LatencyKernel.evaluate_perm`'s DP section
        is per-stage independent, so evaluating a stage subset yields
        the identical floats.
        """
        k = self._k
        tp, dp = k.grid.tp, k.grid.dp
        m = len(stage_idx)
        sub = slots[stage_idx]                                # (m, dp)
        pair = np.take(k._pair_flat,
                       (sub * k._n_slots)[:, :, None] + sub[:, None, :],
                       axis=1)                                # (tp, m, dp, dp)
        if k._one_slot_per_node:
            inter_bw = pair.reshape(tp, m, -1).min(axis=2)
            inter = k._inter_num_all[stage_idx][None] \
                / ((dp * inter_bw) * GB)
            return inter.max(axis=0)
        nodes = np.take(k._node_of_slot, sub)                 # (m, dp)
        same = nodes[:, :, None] == nodes[:, None, :]
        rowmin = np.where(same[None], pair, np.inf).min(axis=3)
        kk = same.sum(axis=2)                                 # (m, dp)
        intra_num = (4.0 * (kk - 1)) * k._msg_dp[stage_idx, None]
        intra = (intra_num[None] / ((kk[None] * rowmin) * GB)).max(axis=2)
        leader = ~((same & k._tril).any(axis=2))              # (m, dp)
        kn = leader.sum(axis=1)                               # (m,)
        pairmask = leader[:, :, None] & leader[:, None, :]
        masked = np.where(pairmask[None], pair, np.inf)
        inter_bw = masked.reshape(tp, m, -1).min(axis=2)
        inter_num = (2.0 * (kn - 1)) * k._msg_dp[stage_idx]
        inter = inter_num[None] / ((kn[None] * inter_bw) * GB)
        return (intra + inter).max(axis=0)

    def _combine(self, t_tp, chain_tot, stage_t) -> float:
        """The scalar epilogue over cached partials — the spec's, verbatim."""
        k = self._k
        pp = k.grid.pp
        c_tp = k._c
        if t_tp is not None:
            c_tp = k._c + k._tp_factor * float(t_tp.max())
        t_pp = 0.0
        if chain_tot is not None:
            t_pp = float(chain_tot.max())
        t_dp = 0.0
        if stage_t is not None:
            exposed = float(stage_t[0])
            if k._n_dp_stages > 1:
                backward_slack = 2.0 * c_tp / 3.0
                adj = stage_t[1:] - k._drain_steps * backward_slack
                exposed = max(exposed, float(adj.max()))
            t_dp = exposed / k._eff
        return k._finish(pp, c_tp, t_pp, t_dp)


def pipette_kernel(model: TransformerConfig, config: ParallelConfig,
                   cluster: ClusterSpec, bandwidth: BandwidthMatrix,
                   profile: ComputeProfile) -> LatencyKernel:
    """A kernel matching :func:`repro.core.latency_model.pipette_latency`.

    Same ablation defaults (hidden critical path, profiled collective
    efficiency, exposure-aware DP term), so
    ``pipette_kernel(...)(mapping)`` is bit-identical to
    ``pipette_latency(model, config, mapping, bandwidth, profile)``.
    """
    from repro.sim.engine import DEFAULT_DP_EFFICIENCY

    return LatencyKernel(
        model, config, cluster, bandwidth, profile,
        LatencyModelOptions(hidden_critical_path=True,
                            collective_efficiency=DEFAULT_DP_EFFICIENCY,
                            dp_exposure_aware=True))
