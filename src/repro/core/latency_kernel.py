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
* the ring-pair positions, and integer tables fixed by the grid and
  node size alone, memoized per shape (``score_unit`` compiles about a
  hundred kernels per request and scores each once).

:class:`LatencyKernel` hoists all of that into ``__init__`` and reduces
one objective evaluation to a handful of NumPy gathers and reductions
over the raw permutation array — no Python-level group loops, no
``Mapping`` construction.  Pair gathers read the slot-pair tables at
row ``perm[src] * n_slots + perm[dst]``; the tables keep the tensor
rank as their last axis, so every reduction runs over leading axes.

**Minimum first.** The TP straggler term and the ring phases are
maxima over groups of ``f(bw) = a * (c / (bw * GB))`` or ``num / ((k *
bw) * GB)`` with non-negative constants.  Each IEEE step of ``f`` is
monotone for ``bw >= 0``, so ``f`` never rises with ``bw`` and
``max_i f(bw_i) == f(min_i bw_i)`` exactly.  The kernel reduces the
gathered bandwidths first and applies ``f`` once; where ``k`` is fixed
it tabulates the denominator ``(k * bw) * GB`` itself, whose minimum
is the minimum bandwidth's.  It refuses a matrix with a NaN, zero or
negative entry through the reference's own check
(:func:`~repro.core.latency_model.refuse_unusable_bandwidth`), so both
paths answer a failed measurement or a dead link with the same
``ValueError``.  With ``pp <= 2`` the straggler sees every slot, so its
term is a compile-time constant; with ``pp == 1`` and whole-node slots
the ring sees every link too, and the kernel returns the value scored
once at compile time.

**The ring term.** One routine, :meth:`LatencyKernel._ring_terms`,
serves :meth:`~LatencyKernel.evaluate_perm`,
:meth:`~LatencyKernel.evaluate_batch` and :class:`IncrementalEvaluator`.
Pairs touching a *follower* — a data rank whose node already appeared
earlier in its stage — read a +inf sentinel row, so the inter-node
minimum spans the reference's leaders only.  On the 16-node Table-1
presets (one core of a shared 2-vCPU VM) this took a two-slot
``evaluate_perm`` from about 60-70 to 35-50 µs, a one-slot one from
about 14-22 to 12-15 µs and pp1-tp8-dp16 from about 9 µs to a constant
(``benchmarks/bench_annealing_kernel.py`` prints the per-grid table).

**Single-hop chains.** With ``pp == 2`` every pipeline chain of
Eq. (5) is one hop: a lane's sum is its hop, and ``t_pp`` is the
largest hop over the data and tensor ranks.  A max of maxima is the
max, so the kernel reduces the hop table over tensor ranks at compile
time, and :meth:`~LatencyKernel.evaluate_perm` and
:meth:`~LatencyKernel.evaluate_batch` both gather ``dp`` entries and
take their maximum — no ``(dp, tp)`` gather, no ``add.accumulate``.
Whole-node slots also lay each stage's ring pairs out as one row (see
:meth:`~LatencyKernel._row_pairs`), so the ring minimum is a row
reduction.  On high-end pp2-tp8-dp8, the grid the elastic polish
anneals, the chain term fell from about 8.5 to 4 µs and
``evaluate_perm`` from about 14 to 9 µs (one core of a shared 2-vCPU
VM; ``benchmarks/bench_annealing_kernel.py`` prints the per-grid
table).

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
* one pipeline-chain sum per ``(data rank, tensor rank)`` lane (per
  data rank when ``pp == 2``),
* one data-parallel ring term per exposure-aware stage.

:class:`IncrementalEvaluator` caches those partials for a bound
permutation and, per proposed permutation, recomputes only the touched
components — *with the exact operation order of the full evaluation*
(chain sums re-accumulate their whole lane sequentially; a touched
stage goes through the same ring routine), so its value equals
``evaluate_perm`` to the last bit.  The annealer does not use it:
:func:`repro.core.annealing.anneal_mapping` always re-scores in full.
Range moves touch about a third of the permutation, so the delta form
only pays off from roughly 128-256 blocks, while Table 1 leaders have
16-32.
"""

from __future__ import annotations

import functools

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
)
from repro.parallel.messages import (
    TP_ALLREDUCES_PER_LAYER,
    dp_message_bytes,
    pp_message_bytes,
    tp_allreduce_bytes,
)
from repro.profiling.profile_run import ComputeProfile
from repro.units import GB


@functools.lru_cache(maxsize=256)
def _geometry(pp: int, dp: int, slots_per_node: int, ns: int) -> tuple:
    """Integer tables fixed by the shape alone, built once per shape.

    The straggler's block positions and their mask, which slot pairs
    share a node, the ``b < a`` mask of a stage's data ranks and the
    stage indices.  The tables are shared: never written.
    """
    n = pp * dp
    rows = np.arange(n).reshape(pp, dp)
    tp_blocks = np.concatenate([rows[0], rows[-1]]) if pp > 1 else rows[0]
    node = np.arange(n) // slots_per_node
    return (tp_blocks, np.isin(np.arange(n), tp_blocks),
            (node[:, None] == node[None, :]).ravel(),
            (rows[0][:, None] < rows[0][None, :])[:, :, None],
            np.arange(ns))


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
        n = self._n_slots = grid.n_blocks
        spn = self._slots_per_node = cluster.gpus_per_node // tp
        ns = self._n_dp_stages = pp if options.dp_exposure_aware else 1
        (self._tp_blocks, self._tp_touch, self._same_node, self._earlier,
         self._stages) = _geometry(pp, dp, spn, ns)

        # ---- permutation-independent scalars -------------------------
        c = profile.max_stage_compute_time(pp, tp, config.micro_batch)
        self._tp_factor = 1.0
        if config.recompute:
            c *= 4.0 / 3.0
            self._tp_factor = 1.5
        self._c = float(c)
        self._n_mb = config.n_microbatches
        self._eff = options.collective_efficiency
        self._hidden_critical_path = options.hidden_critical_path
        self._drain_steps = np.arange(1, ns)
        # Resolve the schedule's analytic critical-time function once;
        # ``_finish`` calls it on every objective evaluation.
        from repro.sim.schedule import schedule_type

        self._critical_time = schedule_type(config.schedule).critical_time

        refuse_unusable_bandwidth(bandwidth)
        # ``blocked[s1, y1, s2, y2] == matrix[s1*tp + y1, s2*tp + y2]``.
        blocked = bandwidth.matrix.reshape(n, tp, n, tp)

        # ---- tensor-parallel term (part of C + T_TP_com) -------------
        if tp > 1:
            # Slowest link inside each slot's TP group (the matrix
            # diagonal is +inf and never wins, matching
            # ``min_over_group``).
            self._tp_min_bw = blocked.diagonal(axis1=0, axis2=2) \
                .min(axis=(0, 1))
            steps = tp - 1
            self._tp_coef = float(2.0 * (steps / tp) * tp_allreduce_bytes(
                model, config.micro_batch))
            self._tp_layers4 = stage_layer_count(model.n_layers, pp, 0) \
                * TP_ALLREDUCES_PER_LAYER
        # With pp <= 2 the first and last stages hold every block, so
        # the straggler sees every slot whatever the permutation: its
        # term is a constant (``None`` when it must be gathered).
        self._c_tp = None
        if tp == 1:
            self._c_tp = self._c
        elif pp <= 2:
            self._c_tp = self._c_tp_at(float(self._tp_min_bw.min()))

        # ``ring[s1 * n + s2, y]``: bandwidth between tensor rank ``y``'s
        # GPUs of slots ``s1`` and ``s2`` — the table the pipeline
        # chains and the data-parallel rings gather through — plus one
        # sentinel row of +inf (see :meth:`_ring_terms`).
        if pp > 1 or dp > 1:
            ring = np.empty((n * n + 1, tp))
            ring[:-1].reshape(n, n, tp)[:] = blocked.diagonal(axis1=1,
                                                                axis2=3)
            ring[-1] = np.inf
            pair = ring[:-1]

        # ---- pipeline-parallel term (Eq. 5) --------------------------
        if pp > 1:
            hop_num = 2.0 * pp_message_bytes(model, config.micro_batch)
            self._pp_hop = hop_num / (pair * GB)
            if pp == 2:
                # Single-hop chains: ``t_pp`` is the largest hop, and a
                # max of maxima is the max — reduce the tensor ranks.
                self._pp_hop = self._pp_hop.max(axis=1)

        # ---- data-parallel term (Eq. 6) ------------------------------
        if dp > 1:
            self._ring_tables(ring, [dp_message_bytes(model, pp, tp, stage=s)
                                     for s in range(ns)])
        # pp == 1 with whole-node slots: one stage holding every slot,
        # whose ring and straggler see every link whatever the order —
        # the value is a constant, scored once here.
        self._constant = None
        if pp == 1 and spn == 1:
            self._constant = self.evaluate_perm(np.arange(n))

    def _ring_tables(self, ring: np.ndarray, msg: "list") -> None:
        """The gather tables of the ring term (see :meth:`_ring_terms`).

        Numerators are looked up by population: ``_inter_num[k * ns +
        x]`` is stage ``x``'s inter-node numerator for ``k`` leaders
        and ``_intra_num`` likewise for a node of ``k`` members, each
        the reference's own ``(c * (k - 1)) * msg`` product.  Where the
        population is fixed (``dp`` leaders of whole-node slots, two
        members of a two-slot node) the denominator ``(k * bw) * GB``
        is tabulated instead of the bandwidth: it is monotone in
        ``bw``, so its minimum is the minimum bandwidth's.
        """
        dp, ns, n = self.grid.dp, self._n_dp_stages, self._n_slots
        spn = self._slots_per_node
        # Ring pair positions ``a -> b`` of the first ``ns`` stages in
        # the layout of :meth:`_row_pairs`: the pair rows of the
        # positions themselves (each below ``n``), split back into
        # source and peer.  Built per kernel: a memo would keep the
        # large-``dp`` ones alive.
        self._ring_src, self._ring_dst = np.divmod(
            self._row_pairs(np.arange(ns * dp).reshape(ns, dp)), n)
        pair = ring[:-1]
        msg = np.asarray(msg)
        k = np.arange(max(dp, spn) + 1)[:, None]
        self._inter_num = ((2.0 * (k - 1)) * msg).ravel()
        self._intra_num = ((4.0 * (k - 1)) * msg).ravel()
        if spn == 1:
            # Whole-node slots: no intra phase, every member leads, and
            # the worst tensor rank has the slowest pair — reduce the
            # table over tensor ranks up front.
            self._dp_num = self._inter_num[dp * ns:(dp + 1) * ns]
            self._ring_den = (dp * pair.min(axis=1)) * GB
            return
        # Pairs touching a follower are redirected to the sentinel row.
        self._sentinel = n * n
        self._ring_bw = ring
        if spn == 2:
            # A two-slot node has a member population of 2 exactly when
            # its second member is a follower.  The node's bandwidth —
            # the minimum of its 2 x 2 block, diagonal included, as
            # ``min_over_group`` reads it — sits on the followers'
            # diagonal cells ``s * (n + 1)``.
            node_bw = pair.reshape(n // 2, 2, n // 2, 2, -1).diagonal(
                axis1=0, axis2=2).min(axis=(0, 1))          # (tp, nodes)
            self._intra_den = np.full_like(ring, np.inf)
            self._intra_den[np.arange(n) * (n + 1)] = \
                ((2 * node_bw) * GB).T.repeat(2, axis=0)
            self._pair_num = self._intra_num[2 * ns:3 * ns]
        else:
            self._intra_bw = np.where(self._same_node[:, None], pair,
                                      np.inf)

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
        if self._constant is not None:
            return self._constant
        pp, dp = self.grid.pp, self.grid.dp
        perm = np.asarray(perm)

        # C + T_TP_com: the straggler TP group sets the pace — the
        # slowest slot, since the term falls as bandwidth rises.  Short
        # vectors like this one reduce faster as Python floats.
        c_tp = self._c_tp
        if c_tp is None:
            c_tp = self._c_tp_at(min(
                self._tp_min_bw.take(perm.take(self._tp_blocks)).tolist()))

        # Eq. (5): slowest end-to-end pipeline communication path.  The
        # running ``add.accumulate`` visits hops in chain order, so the
        # floating-point sum matches the reference's sequential
        # accumulation exactly (unlike ``np.sum``'s pairwise blocking).
        # A single-hop chain (``pp == 2``) is its hop: one gather of
        # ``dp`` entries of the reduced table, no sum.
        scaled = perm * self._n_slots
        t_pp = t_dp = 0.0
        if pp > 1:
            hop = self._pp_hop.take(scaled[:-dp] + perm[dp:], axis=0)
            if pp > 2:
                hop = np.add.accumulate(hop.reshape(pp - 1, -1))[-1]
            t_pp = max(hop.tolist())

        # Eq. (6): hierarchical-ring all-reduce per stage, worst tensor
        # rank; later stages net of their drain slack when
        # ``dp_exposure_aware``.
        if dp > 1:
            stage_t = self._ring_terms(
                scaled.take(self._ring_src) + perm.take(self._ring_dst),
                self._stages)
            t_dp = self._exposed_dp(stage_t.tolist(), c_tp)
        return self._finish(pp, c_tp, t_pp, t_dp)

    def evaluate_batch(self, perms: np.ndarray) -> np.ndarray:
        """Latencies of K block permutations in one vectorized pass.

        ``perms`` is a ``(K, n_blocks)`` array whose rows are
        permutations of ``[0, n_blocks)``.  Every gather and reduction
        of :meth:`evaluate_perm` generalizes with a K axis, and the
        reductions stay per-row independent (the chain
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
        if self._constant is not None:
            return np.full(n, self._constant)

        if self._c_tp is not None:
            c_tp = np.full(n, self._c_tp)
        else:
            c_tp = self._c_tp_at(self._tp_min_bw.take(
                perms.take(self._tp_blocks, axis=1)).min(axis=1))

        t_pp = 0.0
        if pp > 1:
            chains = (perms[:, :-dp] * self._n_slots + perms[:, dp:]) \
                .reshape(n, pp - 1, dp)
            hop = self._pp_hop.take(chains, axis=0)
            if pp > 2:
                hop = np.add.accumulate(hop, axis=1)
            t_pp = hop[:, -1].reshape(n, -1).max(axis=1)

        t_dp = 0.0
        if dp > 1:
            ns = self._n_dp_stages
            rows = perms[:, :ns * dp].reshape(n * ns, dp)
            t_dp = self._exposed_dp_rows(self._ring_terms(
                self._row_pairs(rows), np.tile(self._stages, n))
                .reshape(n, ns), c_tp)
        # The scalar epilogue of ``evaluate_perm``, elementwise: the
        # same expressions on the same floats.
        return self._finish(pp, c_tp, t_pp, t_dp)

    # ------------------------------------------------------------- terms

    def _c_tp_at(self, bw):
        """C + T_TP_com for straggler TP groups of bandwidth ``bw``.

        The TP term ``layers * (coef / (bw * GB))`` never rises with
        ``bw`` (each IEEE operation is monotone), so its maximum over
        the straggler candidates is its value at their minimum
        bandwidth: taking the minimum first is exact, and computes the
        transform once instead of per group.  ``bw`` is one float or
        an array of them (one per batch row).
        """
        return self._c + self._tp_factor * (
            self._tp_layers4 * (self._tp_coef / (bw * GB)))

    def _row_pairs(self, rows: np.ndarray) -> np.ndarray:
        """Pair-table rows of every ring pair of the ``(m, dp)`` rows.

        Whole-node slots lay each row's pairs out contiguously, ``(x, a
        * dp + b)``, so that their minimum is a row reduction; the
        other layouts keep ``(b, a, x)`` (peer, data rank, row) and
        reduce over leading axes.
        """
        if self._slots_per_node == 1:
            return ((rows * self._n_slots)[:, :, None]
                    + rows[:, None]).reshape(len(rows), -1)
        cols = rows.T
        return (cols * self._n_slots)[None] + cols[:, None]

    def _ring_terms(self, pairs: np.ndarray,
                    stages: np.ndarray) -> np.ndarray:
        """Ring terms of ``m`` stage rows, shape ``(m,)``.

        ``pairs[b, a, x]`` (whole-node slots: ``pairs[x, a * dp + b]``,
        see :meth:`_row_pairs`) is the pair-table row from data rank
        ``a`` to data rank ``b`` of stage row ``x``, and ``stages[x]``
        that row's pipeline stage (its message size).  Every reduction is a
        minimum or maximum, exact in any order, and every term
        ``num / ((k * bw) * GB)`` never rises with ``bw``, so each is
        applied to its minimum bandwidth.
        """
        dp, ns = self.grid.dp, self._n_dp_stages
        if self._slots_per_node == 1:
            # One member per node: no intra phase, every member leads.
            return self._dp_num.take(stages) \
                / self._ring_den.take(pairs).min(axis=1)
        same = self._same_node.take(pairs)                  # (b, a, m)
        # Leaders are each node's first member in data-rank order; a
        # follower (an earlier same-node peer exists) reads the
        # sentinel, so the minimum ranges over leader pairs only.
        follower = (same & self._earlier).any(axis=0)       # (a, m)
        if self._slots_per_node == 2:
            # Each follower's diagonal cell holds its node's term.
            cells = np.where(follower.T, pairs.diagonal(), self._sentinel)
            intra = self._pair_num.take(stages)[:, None] \
                / self._intra_den.take(cells, axis=0).min(axis=1)
        else:
            # Per data rank: its node's population ``k`` and slowest
            # link to a same-node peer; the member attaining the node
            # minimum reproduces the reference's per-node term.
            k = same.sum(axis=0)                            # (a, m)
            rowmin = self._intra_bw.take(pairs, axis=0).min(axis=0)
            intra = (self._intra_num.take(k * ns + stages)[..., None]
                     / ((k[..., None] * rowmin) * GB)).max(axis=0)
        lead = np.where(follower[None] | follower[:, None],
                        self._sentinel, pairs)
        # Two one-axis minima: faster than one over both at dp >= 16.
        bw = self._ring_bw.take(lead, axis=0).min(axis=0).min(axis=0)
        kn = dp - follower.sum(axis=0)                      # (m,)
        inter = self._inter_num.take(kn * ns + stages)[:, None] \
            / ((kn[:, None] * bw) * GB)
        return (intra + inter).max(axis=1)

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

    def _exposed_dp_rows(self, stage_t: np.ndarray, c_tp) -> np.ndarray:
        """:meth:`_exposed_dp` over rows of ``(..., ns)`` stage terms."""
        exposed = stage_t[..., 0]
        if self._n_dp_stages > 1:
            backward_slack = 2.0 * np.asarray(c_tp) / 3.0
            adj = stage_t[..., 1:] \
                - self._drain_steps * backward_slack[..., None]
            exposed = np.maximum(exposed, adj.max(axis=-1))
        return exposed / self._eff

    def _finish(self, pp: int, c_tp: float, t_pp: float,
                t_dp: float) -> float:
        if self._hidden_critical_path:
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
      ``(data rank, tensor rank)`` lane, shape ``(dp, tp)`` (``(dp,)``
      when ``pp == 2``, whose hop table is reduced over tensor ranks;
      ``None`` when ``pp == 1``);
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
        self._stage_t = k._ring_terms(k._row_pairs(slots[k._stages]),
                                      k._stages) if dp > 1 else None
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
            cols = np.flatnonzero(np.bincount(touched % dp, minlength=dp))
            chain_tot = chain_tot.copy()
            chain_tot[cols] = self._chain_lanes(slots, cols)

        stage_t = self._stage_t
        if stage_t is not None:
            stages = np.flatnonzero(np.bincount(
                touched // dp, minlength=pp)[:k._n_dp_stages])
            if stages.size:
                stage_t = stage_t.copy()
                stage_t[stages] = k._ring_terms(
                    k._row_pairs(slots[stages]), stages)

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
        hop = np.take(k._pp_hop, sub[:-1] * k._n_slots + sub[1:], axis=0)
        return np.add.accumulate(hop, axis=0)[-1]

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
            t_dp = k._exposed_dp(stage_t.tolist(), c_tp)
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
