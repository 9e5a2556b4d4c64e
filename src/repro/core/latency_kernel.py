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
* integer tables fixed by the grid and node size alone — the follower
  position table, the pair positions and the segment starts — memoized
  per shape (``score_unit`` compiles about a hundred kernels per
  request and scores each once).

:class:`LatencyKernel` hoists all of that into ``__init__`` and reduces
one objective evaluation to a handful of NumPy gathers and reductions
over the raw permutation array — no Python-level group loops, no
``Mapping`` construction.  Pair gathers read the slot-pair tables at
column ``perm[src] * n_slots + perm[dst]``; the tables are tensor-rank
major, so every minimum over gathered pairs is a last-axis
``ufunc.reduceat`` over stage segments.

**Minimum first.** The TP straggler term and the ring phases are
maxima over groups of ``f(bw) = a * (c / (bw * GB))`` or ``num / ((k *
bw) * GB)`` with non-negative constants.  Each IEEE step of ``f`` is
monotone for ``bw >= 0``, so ``f`` never rises with ``bw`` and
``max_i f(bw_i) == f(min_i bw_i)`` exactly.  The kernel reduces the
gathered bandwidths first and applies ``f`` once; where ``k`` is fixed
it tabulates the denominator ``(k * bw) * GB`` itself, whose minimum
is the minimum bandwidth's, and on whole-node grids, where nothing
else varies, it tabulates ``f(bw)`` and takes the maximum.  It refuses
a matrix with a NaN, zero or negative entry through the reference's
own check
(:func:`~repro.core.latency_model.refuse_unusable_bandwidth`), so both
paths answer a failed measurement or a dead link with the same
``ValueError``.  With ``pp <= 2`` the straggler sees every slot, so its
term is a compile-time constant; with ``pp == 1`` and whole-node slots
the ring sees every link too, and the kernel returns the value scored
once at compile time.

**The ring term.** One routine per slot geometry serves
:meth:`~LatencyKernel.evaluate_perm` and :class:`IncrementalEvaluator`:
:meth:`LatencyKernel._leader_terms` when ``pp == 1`` on nodes of two or
more slots, :meth:`LatencyKernel._ring_terms` on such nodes when ``pp
>= 2``, and on whole-node grids the ring segments of the stacked term
table read by :meth:`LatencyKernel._stack_max` (below).

With ``pp == 1`` the one ring row holds every slot, so each node has
all its ``spn`` slots as members and there are ``N`` leaders, one per
node: the intra phase of each tensor rank — the term of the slowest
node's ``spn x spn`` block, diagonal included — and the leader count
are fixed at compile time.  The mapping decides only which slot of each
node leads.  The reference's leader is ``by_node[n][0]``, the node's
first member in data-rank order, which with one stage is the node's
slot of smallest block position: the routine reads it off the inverse
permutation, gathers the leaders' ``N x N`` submatrix of the
tensor-rank-major pair table — the submatrix ``min_over_group`` reads,
diagonal included — and takes its minimum per tensor rank.  The terms
are then the reference's, ``max_y(intra_y + num / ((N * min_y) *
GB))``, bit for bit.

With ``pp >= 2`` a stage row holds some of the slots.  A *follower* is
a data rank whose node already appeared earlier in its stage; the
reference's leaders are the others.  A follower reads its leader's
slot — an *effective leader slot* — so the pairs it adds, ``(l, b)``
and ``(l, l)``, already lie in the leaders' ``min_over_group``
submatrix, diagonal included (finite or +inf): the minimum over all
``dp * dp`` pairs of the stage is the leaders' exactly, and the leader
count ``kn`` is ``dp`` less the followers.  On two-slot nodes the other
slot of ``s``'s node is ``s ^ 1``: a rank follows when its partner's
block precedes its own in the same stage, found through the inverse
permutation and a shape-only position table, and then leads through
the partner's slot.  Its node's intra phase reads a per-slot
node-denominator table, whose +inf column every non-follower reads.
The pair and intra cells come out of one gather over a stacked table
and one ``np.minimum.reduceat``.

**Whole-node grids.** With one slot per node every member leads and
there is no intra phase, so every term the permutation moves is a
maximum over gathered entries of a tabulated value: the straggler's
``C + T_TP_com`` per slot when ``pp > 2``, the single-hop chains when
``pp == 2`` and each stage's ring term per slot pair.  They sit in one
stacked table, laid out once per shape, and come out of one fancy
gather and one ``np.maximum.reduceat``; the evaluator's touched stages
read their own segments of it.  Chains with ``pp > 2`` keep their
sequential ``add.accumulate``.

**Single-hop chains.** With ``pp == 2`` every pipeline chain of
Eq. (5) is one hop: a lane's sum is its hop, and ``t_pp`` is the
largest hop over the data and tensor ranks.  A max of maxima is the
max, so the kernel reduces the hop table over tensor ranks at compile
time and gathers ``dp`` entries of it — no ``(dp, tp)`` gather, no
``add.accumulate``.

**Costs.** Per ``evaluate_perm`` call on the 16-node Table-1 presets,
best of fourteen interleaved rounds (two runs of seven) of the
measurement that
``benchmarks/bench_annealing_kernel.py::test_preset_grid_table``
prints (one core of a shared 2-vCPU x86 VM), before and after the
effective leader slots and the whole-node stacked table:

==============  ===========  ===========
grid            mid-range    high-end
==============  ===========  ===========
pp4-tp8-dp4     14.5 → 11.9  14.2 → 13.0
pp2-tp8-dp8     9.5 → 7.1    10.7 → 7.4
pp8-tp8-dp2     15.3 → 12.2  16.3 → 14.1
pp8-tp4-dp4     42.9 → 39.1  43.6 → 35.9
pp4-tp4-dp8     44.4 → 36.7  46.5 → 37.4
pp2-tp4-dp16    45.9 → 33.9  44.9 → 32.0
==============  ===========  ===========

(µs; pp1-tp8-dp16 is a constant, 0.1 µs.  Single rounds on this host
varied up to twofold, so only the best rounds compare.)

The ``pp == 1`` grids on nodes of several slots, at 4 and 16 nodes,
before and after :meth:`LatencyKernel._leader_terms`, best of three
interleaved rounds of the same measurement (µs):

=================  ============  ============
grid               mid-range     high-end
=================  ============  ============
4n pp1-tp1-dp32    38.0 → 6.0    39.9 → 6.2
4n pp1-tp2-dp16    34.0 → 6.4    36.1 → 6.8
4n pp1-tp4-dp8     22.6 → 6.6    23.2 → 7.2
16n pp1-tp1-dp128  138.6 → 8.8   122.8 → 8.7
16n pp1-tp2-dp64   65.1 → 8.8    69.2 → 9.2
16n pp1-tp4-dp32   28.6 → 10.0   28.4 → 10.5
=================  ============  ============

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
from typing import NamedTuple

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


#: ``GB`` as a float: ``x * GB`` and ``x * float(GB)`` round alike (the
#: integer is exact in a double), and a float scalar skips a cast.
_GB = float(GB)


@functools.lru_cache(maxsize=256)
def _starts(count: int, width: int) -> np.ndarray:
    """Starts of ``count`` segments of ``width`` entries each: the index
    argument of a ``ufunc.reduceat`` over equal stage segments."""
    return np.arange(0, count * width, width)


@functools.lru_cache(maxsize=256)
def _ring_starts(rows: int, dp: int, slots_per_node: int) -> tuple:
    """Segment starts of a ring gather over ``rows`` stage rows (see
    :meth:`LatencyKernel._ring_terms`), and of the rows themselves.

    The gather holds one ``dp * dp`` pair segment per row, then intra
    segments of ``dp`` cells: one per row on two-slot nodes, one per
    data rank on larger ones.
    """
    cells = _starts(rows * (1 if slots_per_node == 2 else dp), dp)
    return (np.concatenate([_starts(rows, dp * dp),
                            rows * dp * dp + cells]), _starts(rows, dp))


class _Geometry(NamedTuple):
    """Integer tables fixed by the shape alone (see :func:`_geometry`)."""

    tp_blocks: np.ndarray
    tp_touch: np.ndarray
    stages: np.ndarray
    ring_blocks: np.ndarray
    follows: "np.ndarray | None"
    follow_base: np.ndarray
    ranks: np.ndarray
    same_node: "np.ndarray | None"
    stack_parts: tuple
    stack_src: "np.ndarray | None"
    stack_dst: "np.ndarray | None"
    stack_off: "np.ndarray | None"
    stack_starts: "np.ndarray | None"
    ring_src: "np.ndarray | None"
    ring_dst: "np.ndarray | None"


@functools.lru_cache(maxsize=256)
def _geometry(pp: int, dp: int, slots_per_node: int, ns: int,
              straggler: bool) -> _Geometry:
    """Integer tables fixed by the shape alone, built once per shape.

    * the straggler's block positions and their mask, the stage
      indices and the ring blocks (the first ``ns`` stages);
    * the follower position table of two-slot nodes,
      ``follows[i * n + j] == 1`` when block ``j`` precedes block ``i``
      in ``i``'s stage, and its row offsets ``i * n`` per ring block;
    * the data ranks, and for larger nodes which slot pairs share a
      node (neither table when ``pp == 1``: see
      :meth:`LatencyKernel._leader_terms`);
    * for whole-node grids, the layout of the stacked term table (see
      :meth:`LatencyKernel._whole_node_tables`), decided here alone:
      ``stack_parts`` names its ``n * n`` tables in order — ``"tp"``
      (the straggler, when ``straggler``), ``"hop"`` (single-hop
      chains, ``pp == 2``), then ``"ring"`` once per ring stage — and
      each table is read by one segment, whose entries' source and
      peer blocks, table offsets and segment starts follow that order;
      ``ring_src`` and ``ring_dst`` are the ring segments' blocks, one
      row per stage.

    The tables are shared: never written.
    """
    n = pp * dp
    rows = np.arange(n).reshape(pp, dp)
    tp_blocks = np.concatenate([rows[0], rows[-1]]) if pp > 1 else rows[0]
    ring_blocks = rows[:ns].ravel()
    follows = same_node = None
    if pp > 1 and slots_per_node == 2:
        j = np.arange(n)
        lo = (ring_blocks - ring_blocks % dp)[:, None]
        follows = ((j >= lo) & (j < ring_blocks[:, None])) \
            .astype(np.int64).ravel()
    elif pp > 1 and slots_per_node > 2:
        node = np.arange(n) // slots_per_node
        same_node = (node[:, None] == node[None, :]).ravel()
    parts = []                  # per table: (name, source, peer blocks)
    src = dst = off = starts = ring_src = ring_dst = None
    if slots_per_node == 1:
        if straggler:
            # The straggler table sits on the diagonal, ``s * (n + 1)``.
            parts.append(("tp", tp_blocks, tp_blocks))
        if pp == 2:
            parts.append(("hop", rows[0], rows[1]))
        if dp > 1:
            ring_src = rows[:ns].repeat(dp, axis=1)
            ring_dst = np.tile(rows[:ns], dp)
            parts += [("ring", a, b) for a, b in zip(ring_src, ring_dst)]
        if parts:
            src = np.concatenate([a for _, a, _ in parts])
            dst = np.concatenate([b for _, _, b in parts])
            off = np.concatenate([np.full(len(a), t * n * n)
                                  for t, (_, a, _) in enumerate(parts)])
            starts = np.cumsum([0] + [len(a) for _, a, _ in parts[:-1]])
    return _Geometry(
        tp_blocks, np.isin(np.arange(n), tp_blocks), np.arange(ns),
        ring_blocks, follows, ring_blocks * n, np.arange(dp), same_node,
        tuple(name for name, _, _ in parts), src, dst, off, starts,
        ring_src, ring_dst)


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
        self._iota = np.arange(n)

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
        geo = _geometry(pp, dp, spn, ns, self._c_tp is None)
        self._tp_blocks, self._tp_touch, self._stages, self._ring_blocks = \
            geo.tp_blocks, geo.tp_touch, geo.stages, geo.ring_blocks

        # ``ring[y, s1 * n + s2]``: bandwidth between tensor rank ``y``'s
        # GPUs of slots ``s1`` and ``s2`` — the table the pipeline
        # chains and the data-parallel rings gather through, tensor
        # rank first so that every ring reduction runs along the last
        # axis.
        if pp > 1 or dp > 1:
            ring = np.ascontiguousarray(
                blocked.diagonal(axis1=1, axis2=3).transpose(2, 0, 1)) \
                .reshape(tp, n * n)

        # ---- pipeline-parallel term (Eq. 5) --------------------------
        if pp > 1:
            hop = (2.0 * pp_message_bytes(model, config.micro_batch)) \
                / (ring * GB)
            # Single-hop chains: ``t_pp`` is the largest hop, and a max
            # of maxima is the max — reduce the tensor ranks.  Longer
            # chains gather whole lanes, ``(hop, tensor rank)``.
            self._pp_hop = hop.max(axis=0) if pp == 2 \
                else np.ascontiguousarray(hop.T)

        # ---- data-parallel term (Eq. 6) ------------------------------
        if dp > 1:
            self._ring_tables(ring, [dp_message_bytes(model, pp, tp, stage=s)
                                     for s in range(ns)], geo)
        if spn == 1:
            self._whole_node_tables(geo)
        # pp == 1 with whole-node slots: one stage holding every slot,
        # whose ring and straggler see every link whatever the order —
        # the value is a constant, scored once here.
        self._constant = None
        if pp == 1 and spn == 1:
            self._constant = self.evaluate_perm(self._iota)

    def _ring_tables(self, ring: np.ndarray, msg: "list",
                     geo: _Geometry) -> None:
        """The gather tables of the ring term (see :meth:`_leader_terms`,
        :meth:`_ring_terms` and :meth:`_whole_node_tables`).

        Numerators are looked up by population: ``_inter_num[k * ns +
        x]`` is stage ``x``'s inter-node numerator for ``k`` leaders
        and ``_intra_num`` likewise for a node of ``k`` members, each
        the reference's own ``(c * (k - 1)) * msg`` product.  Where the
        population is fixed, a table holds more than the bandwidth: the
        denominator ``(k * bw) * GB`` for the two members of a two-slot
        node (monotone in ``bw``, so its minimum is the minimum
        bandwidth's), the whole term for the ``dp`` leaders of
        whole-node slots (its maximum is the term of that minimum), and
        with ``pp == 1`` on larger nodes the whole intra phase.
        """
        dp, tp, ns, n = self.grid.dp, self.grid.tp, self._n_dp_stages, \
            self._n_slots
        spn = self._slots_per_node
        msg = np.asarray(msg)
        k = np.arange(max(dp, spn) + 1)[:, None]
        self._inter_num = ((2.0 * (k - 1)) * msg).ravel()
        self._intra_num = ((4.0 * (k - 1)) * msg).ravel()
        if spn == 1:
            # Whole-node slots: no intra phase, every member leads, and
            # the worst tensor rank has the slowest pair — reduce the
            # table over tensor ranks up front, and tabulate each
            # stage's term itself per slot pair, ``(ns, n * n)`` (it
            # joins the stacked table of :meth:`_whole_node_tables`).
            self._ring_term = self._inter_num[dp * ns:(dp + 1) * ns, None] \
                / ((dp * ring.min(axis=0)) * GB)
            return
        if self.grid.pp == 1:
            # One ring row holding every slot (see
            # :meth:`_leader_terms`): every node's intra phase has all
            # ``spn`` members, so per tensor rank it is the term of the
            # slowest node's minimum — its ``spn x spn`` block, diagonal
            # included — and the inter phase has one leader per node.
            nodes = self._n_nodes = n // spn
            node_bw = ring.reshape(tp, nodes, spn, nodes, spn).diagonal(
                axis1=1, axis2=3).min(axis=(1, 2, 3))           # (tp,)
            self._full_intra = (self._intra_num[spn]
                                / ((spn * node_bw) * _GB)).tolist()
            self._lead_num = float(self._inter_num[nodes])
            self._node_first = np.arange(0, n, spn)
            self._ring3 = ring.reshape(tp, n, n)
            return
        # Two-slot and larger nodes stack an intra block after the
        # ``n * n`` pair block, so that one gather and one segment-min
        # serve both phases (see :meth:`_ring_terms`).
        if spn == 2:
            # A two-slot node has two members exactly when one of them
            # follows.  Per slot: its node's denominator — the minimum
            # of the node's 2 x 2 block, diagonal included, as
            # ``min_over_group`` reads it — plus a +inf column that
            # non-followers read.
            node_bw = ring.reshape(tp, n // 2, 2, n // 2, 2).diagonal(
                axis1=1, axis2=3).min(axis=(1, 2))          # (tp, nodes)
            intra = np.full((tp, n + 1), np.inf)
            intra[:, :n] = ((2 * node_bw) * GB).repeat(2, axis=1)
            self._pair_num = self._intra_num[2 * ns:3 * ns]
            self._follows, self._follow_base = geo.follows, geo.follow_base
        else:
            # The pair table again, +inf where the slots' nodes differ.
            self._same_node = geo.same_node
            intra = np.where(geo.same_node, ring, np.inf)
        self._ranks = geo.ranks
        self._ring = np.concatenate([ring, intra], axis=1)
        self._ring_starts = _ring_starts(ns, dp, spn)

    def _whole_node_tables(self, geo: _Geometry) -> None:
        """One stacked table of every term of a whole-node grid.

        Each term of Eqs. (3)-(6) that a whole-node grid reads is a
        maximum over gathered entries of a function that never falls
        as the bandwidth falls: the straggler's ``C + T_TP_com`` per
        slot when ``pp > 2``, the single-hop chains when ``pp == 2``,
        and per ring stage ``num / ((dp * bw) * GB)`` per slot pair.
        Tabulated as ``n * n`` tables (the straggler's on the diagonal,
        ``-inf`` elsewhere) in the order of ``geo.stack_parts``, each is
        read by one segment of :meth:`_stack_max`; ``_tp_at``,
        ``_hop_at`` and ``_ring_at`` are those segments' indices
        (``None`` when absent; the ``ns`` ring segments come last).
        """
        self._stack = None
        at = {}
        for i, part in enumerate(geo.stack_parts):
            at.setdefault(part, i)
        self._tp_at, self._hop_at, self._ring_at = \
            at.get("tp"), at.get("hop"), at.get("ring")
        if not at:
            return
        n = self._n_slots
        tables = []
        ring = iter(self._ring_term) if self._ring_at is not None else None
        for part in geo.stack_parts:
            if part == "tp":
                table = np.full(n * n, -np.inf)
                table[::n + 1] = self._c_tp_at(self._tp_min_bw)
            elif part == "hop":
                table = self._pp_hop
            else:
                table = next(ring)
            tables.append(table)
        self._stack = np.concatenate(tables)
        if ring is not None:
            del self._ring_term         # now the stack's ring tables
            self._ring_src, self._ring_dst = geo.ring_src, geo.ring_dst
        self._stack_src, self._stack_dst, self._stack_off, \
            self._stack_starts = geo.stack_src, geo.stack_dst, \
            geo.stack_off, geo.stack_starts

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
        # slowest slot, since the term falls as bandwidth rises.
        c_tp = self._c_tp
        t_pp = t_dp = 0.0
        stage_t = None
        if self._slots_per_node == 1:
            # Whole-node slots: every term in one gather and one
            # segment-max.
            if self._stack is not None:
                terms = self._stack_max(
                    perm, self._stack_src, self._stack_dst,
                    self._stack_off, self._stack_starts)
                if self._tp_at is not None:
                    c_tp = terms.item(self._tp_at)
                if self._hop_at is not None:
                    t_pp = terms.item(self._hop_at)
                if self._ring_at is not None:
                    stage_t = terms[self._ring_at:].tolist()
        else:
            if c_tp is None:
                c_tp = self._c_tp_at(min(self._tp_min_bw.take(
                    perm.take(self._tp_blocks)).tolist()))
            # A single-hop chain (``pp == 2``) is its hop: one gather
            # of ``dp`` entries of the reduced table, no sum.
            if pp == 2:
                t_pp = max(self._pp_hop.take(perm[:dp] * self._n_slots
                                             + perm[dp:]).tolist())
            if pp == 1:
                stage_t = [self._leader_terms(perm)]
            elif dp > 1:
                stage_t = self._ring_terms(
                    perm[:len(self._ring_blocks)],
                    perm.argsort() if self._slots_per_node == 2 else None,
                    self._ring_blocks, self._stages).tolist()
        # Eq. (5): slowest end-to-end pipeline communication path.  The
        # running ``add.accumulate`` visits hops in chain order, so the
        # floating-point sum matches the reference's sequential
        # accumulation exactly (unlike ``np.sum``'s pairwise blocking).
        if pp > 2:
            hop = self._pp_hop.take(perm[:-dp] * self._n_slots
                                    + perm[dp:], axis=0)
            t_pp = max(np.add.accumulate(hop.reshape(pp - 1, -1))[-1]
                       .tolist())
        # Eq. (6): hierarchical-ring all-reduce per stage, worst tensor
        # rank; later stages net of their drain slack when
        # ``dp_exposure_aware``.
        if stage_t is not None:
            t_dp = self._exposed_dp(stage_t, c_tp)
        return self._finish(pp, c_tp, t_pp, t_dp)

    def evaluate_batch(self, perms: np.ndarray) -> np.ndarray:
        """Latencies of the rows of a ``(K, n_blocks)`` array of block
        permutations: row ``k`` is ``evaluate_perm(perms[k])``.

        The warm-start pick scores a handful of rows per call: a stacked
        form would save microseconds on a miss that costs milliseconds.
        """
        perms = np.asarray(perms)
        if perms.ndim != 2 or perms.shape[1] != self.grid.n_blocks:
            raise ValueError(
                f"expected a (K, {self.grid.n_blocks}) batch of "
                f"permutations, got shape {perms.shape}"
            )
        return np.array([self.evaluate_perm(perm) for perm in perms],
                        dtype=float)

    # ------------------------------------------------------------- terms

    def _c_tp_at(self, bw):
        """C + T_TP_com for straggler TP groups of bandwidth ``bw``.

        The TP term ``layers * (coef / (bw * GB))`` never rises with
        ``bw`` (each IEEE operation is monotone), so its maximum over
        the straggler candidates is its value at their minimum
        bandwidth: taking the minimum first is exact, and computes the
        transform once instead of per group.  ``bw`` is one float or
        an array of them (one per slot).
        """
        return self._c + self._tp_factor * (
            self._tp_layers4 * (self._tp_coef / (bw * GB)))

    def _stage_terms(self, perm: np.ndarray,
                     stages: np.ndarray) -> np.ndarray:
        """Ring terms of the stages ``stages`` of one permutation."""
        dp = self.grid.dp
        if self._slots_per_node == 1:
            # The stage's ring segments of the stacked table.
            width = dp * dp
            return self._stack_max(
                perm, self._ring_src[stages].ravel(),
                self._ring_dst[stages].ravel(),
                ((self._ring_at + stages) * self._n_slots ** 2)
                .repeat(width), _starts(len(stages), width))
        if self.grid.pp == 1:
            return np.array([self._leader_terms(perm)])
        if stages is self._stages:
            blocks = self._ring_blocks
            slots = perm[:len(blocks)]
        else:
            blocks = (stages[:, None] * dp + self._iota[:dp]).ravel()
            slots = perm.take(blocks)
        inv = perm.argsort() if self._slots_per_node == 2 else None
        return self._ring_terms(slots, inv, blocks, stages)

    def _stack_max(self, perm: np.ndarray, src: np.ndarray,
                   dst: np.ndarray, off: np.ndarray,
                   starts: np.ndarray) -> np.ndarray:
        """Segment maxima of a whole-node grid's stacked term table.

        Entry ``i`` reads ``perm[src[i]] * n + perm[dst[i]] + off[i]``
        of the table of :meth:`_whole_node_tables`, and ``starts`` are
        the segment starts.
        """
        n = self._n_slots
        return np.maximum.reduceat(self._stack.take(
            perm.take(src) * n + perm.take(dst) + off), starts)

    def _ring_terms(self, slots: np.ndarray, inv: "np.ndarray | None",
                    blocks: np.ndarray, stages: np.ndarray) -> np.ndarray:
        """Ring terms of ``m`` stage rows on nodes of two or more slots
        when ``pp >= 2``, shape ``(m,)``.

        ``slots`` holds the slots of whole stage rows in data-rank
        order, from one permutation whose inverse is ``inv``; only
        two-slot nodes read the inverse (``None`` otherwise).
        ``blocks`` are the slots' block positions in the permutation,
        and ``stages[x]`` is row ``x``'s pipeline stage (its message
        size).

        A data rank *follows* when its node already appears earlier in
        its row.  It reads its node leader's slot instead of its own —
        an *effective leader slot* — so every pair it adds, ``(l, b)``
        or ``(l, l)``, already lies in the leaders' ``min_over_group``
        submatrix, diagonal included, and the minimum over all ``dp *
        dp`` pairs of the row is the leaders' exactly.  The pairs and
        the intra cells are read in one gather over the stacked table
        and reduced in one segment-min; every reduction is a minimum or
        maximum along the last axis, exact in any order, and every term
        ``num / ((k * bw) * GB)`` never rises with ``bw``, so each is
        applied to its minimum bandwidth.
        """
        dp, ns, n = self.grid.dp, self._n_dp_stages, self._n_slots
        spn = self._slots_per_node
        rows = slots.reshape(-1, dp)
        m = len(rows)
        starts, row_starts = self._ring_starts if m == self._n_dp_stages \
            else _ring_starts(m, dp, spn)
        if spn == 2:
            # The partner ``s ^ 1`` is the only other slot of the node:
            # a data rank follows when the partner's block precedes its
            # own in the stage, and then leads through the partner.  A
            # follower's intra cell is its node's denominator, anyone
            # else's the +inf column.
            pos = inv.take(slots ^ 1)
            follow = self._follows.take(
                (self._follow_base if blocks is self._ring_blocks
                 else blocks * n) + pos)
            lead = (slots ^ follow).reshape(m, dp)
            cells = np.where(follow, slots, n).ravel() + n * n
        else:
            # Which pairs of the row share a node; a data rank's leader
            # is the first rank of its node (``argmax`` finds the first
            # ``True``, its own at the latest).  Per data rank, its intra
            # cells are its links to every rank of the row, +inf off its
            # node, so their minimum is its slowest same-node link
            # (diagonal included).
            pairs = (rows * n)[:, :, None] + rows[:, None]
            same = self._same_node.take(pairs)
            first = same.argmax(axis=2)
            follow = first < self._ranks
            lead = rows.take(first + row_starts[:, None])
            cells = pairs.ravel() + n * n
        mins = np.minimum.reduceat(self._ring.take(np.concatenate(
            [((lead * n)[:, :, None] + lead[:, None]).ravel(), cells]),
            axis=1), starts, axis=1)
        if spn == 2:
            intra = self._pair_num.take(stages) / mins[:, m:]
        else:
            # The member attaining its node's minimum link reproduces
            # the node's term, so the row's maximum is the reference's.
            k = np.add.reduce(same, axis=2, dtype=np.intp).ravel()
            intra = np.maximum.reduceat(
                self._intra_num.take(k * ns + stages.repeat(dp))
                / ((k * mins[:, m:]) * _GB), row_starts, axis=1)
        kn = dp - np.add.reduceat(follow.ravel(), row_starts, dtype=np.intp)
        inter = self._inter_num.take(kn * ns + stages) \
            / ((kn * mins[:, :m]) * _GB)
        return np.maximum.reduce(intra + inter, axis=0)

    def _leader_terms(self, perm: np.ndarray) -> float:
        """Ring term of a ``pp == 1`` grid on nodes of two or more
        slots.

        The one ring row holds every slot, so every node has all its
        slots as members: the intra phase is the compile-time
        ``_full_intra`` and there are ``N`` leaders, one per node.  The
        reference's leader of a node is its first member in data-rank
        order — the node's slot with the smallest block position, read
        off the inverse permutation — and the inter phase reads the
        leaders' ``N x N`` submatrix, diagonal included.
        """
        nodes = self._n_nodes
        lead = perm.take(np.minimum.reduceat(perm.argsort(),
                                             self._node_first))
        bw = np.minimum.reduce(self._ring3.take(lead, axis=1).take(
            lead, axis=2), axis=(1, 2)).tolist()
        return max([intra + self._lead_num / ((nodes * b) * _GB)
                    for intra, b in zip(self._full_intra, bw)])

    def _exposed_dp(self, stage_t: "list[float]", c_tp: float) -> float:
        """T_DP: the first stage's ring term, or a later stage's net of
        its drain slack when that is larger.  The first stage's slack
        is ``0 * slack == 0.0``, and ``t - 0.0 == t`` exactly."""
        backward_slack = 2.0 * c_tp / 3.0
        return max([t - x * backward_slack
                    for x, t in enumerate(stage_t)]) / self._eff

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
        self._stage_t = k._stage_terms(perm, k._stages) if dp > 1 \
            else None
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
                stage_t[stages] = k._stage_terms(perm, stages)

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
