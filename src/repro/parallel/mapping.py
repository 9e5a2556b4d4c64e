"""Logical-worker grids and their 1:1 mapping onto physical GPUs.

The paper formalizes fine-grained worker dedication as finding a
bijection ``f : W -> G`` (Eq. 2) between the logical worker grid
``W = [pp] x [tp] x [dp]`` and the GPUs.

Because tensor-parallel groups communicate every layer, every sane
mapping keeps each TP group inside one node (§II-A).  We therefore
factor the bijection into *blocks*: the GPUs of a node are partitioned
into aligned slots of ``tp`` consecutive GPUs, and the mapping permutes
TP groups over slots.  With ``tp = 8`` (the Megatron default) a block
is a full node and the permutation reorders nodes — exactly the
regrouping of the paper's Fig. 4 example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.topology import ClusterSpec
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class WorkerGrid:
    """The logical worker cuboid ``[pp] x [tp] x [dp]``.

    Worker coordinates are ``(x, y, z)`` = (pipeline stage, tensor
    rank, data rank), 0-indexed.  A *block* is one TP group: the
    ``tp`` workers sharing ``(x, z)``.
    """

    pp: int
    tp: int
    dp: int

    def __post_init__(self) -> None:
        check_positive_int(self.pp, "pp")
        check_positive_int(self.tp, "tp")
        check_positive_int(self.dp, "dp")

    @property
    def n_workers(self) -> int:
        """Total logical workers ``|W| = pp * tp * dp``."""
        return self.pp * self.tp * self.dp

    @property
    def n_blocks(self) -> int:
        """Number of TP groups ``pp * dp``."""
        return self.pp * self.dp

    def block_index(self, x: int, z: int) -> int:
        """Index of the TP-group block at stage ``x``, data rank ``z``."""
        self._check(x, 0, z)
        return x * self.dp + z

    def block_coords(self, block: int) -> tuple[int, int]:
        """Inverse of :meth:`block_index`: ``block -> (x, z)``."""
        if not 0 <= block < self.n_blocks:
            raise ValueError(f"block {block} out of range [0, {self.n_blocks})")
        return divmod(block, self.dp)

    def _check(self, x: int, y: int, z: int) -> None:
        if not (0 <= x < self.pp and 0 <= y < self.tp and 0 <= z < self.dp):
            raise ValueError(
                f"worker ({x}, {y}, {z}) outside grid "
                f"[{self.pp}] x [{self.tp}] x [{self.dp}]"
            )

    def to_payload(self) -> dict:
        """JSON-serializable form (see :mod:`repro.service.store`)."""
        return {"pp": self.pp, "tp": self.tp, "dp": self.dp}

    @classmethod
    def from_payload(cls, payload: dict) -> "WorkerGrid":
        """Inverse of :meth:`to_payload`."""
        return cls(pp=payload["pp"], tp=payload["tp"], dp=payload["dp"])


class Mapping:
    """A bijection from logical workers to GPUs, in block form.

    Args:
        grid: the worker grid.
        cluster: the physical cluster; ``tp`` must divide its
            ``gpus_per_node`` so blocks never straddle nodes.
        block_to_slot: permutation array; block ``b`` (a TP group)
            occupies GPU slot ``block_to_slot[b]``, i.e. GPUs
            ``[slot*tp, (slot+1)*tp)``.
    """

    def __init__(self, grid: WorkerGrid, cluster: ClusterSpec,
                 block_to_slot: np.ndarray) -> None:
        check_slot_geometry(grid, cluster)
        block_to_slot = np.asarray(block_to_slot, dtype=np.int64)
        if block_to_slot.shape != (grid.n_blocks,):
            raise ValueError(
                f"expected {grid.n_blocks} block slots, got shape "
                f"{block_to_slot.shape}"
            )
        if not np.array_equal(np.sort(block_to_slot), np.arange(grid.n_blocks)):
            raise ValueError("block_to_slot must be a permutation of the slots")
        self.grid = grid
        self.cluster = cluster
        self.block_to_slot = block_to_slot

    # ------------------------------------------------------------- accessors

    def gpu(self, x: int, y: int, z: int) -> int:
        """Physical GPU id of logical worker ``(x, y, z)`` — the ``f`` of Eq. 2."""
        self.grid._check(x, y, z)
        slot = self.block_to_slot[self.grid.block_index(x, z)]
        return int(slot * self.grid.tp + y)

    def worker_of_gpu(self, gpu: int) -> tuple[int, int, int]:
        """Inverse lookup: which worker runs on ``gpu``."""
        tp = self.grid.tp
        slot, y = divmod(int(gpu), tp)
        block = int(np.nonzero(self.block_to_slot == slot)[0][0])
        x, z = self.grid.block_coords(block)
        return x, y, z

    def tp_group(self, x: int, z: int) -> list[int]:
        """GPUs of the tensor-parallel group at stage ``x``, data rank ``z``."""
        return [self.gpu(x, y, z) for y in range(self.grid.tp)]

    def pipeline_chain(self, y: int, z: int) -> list[int]:
        """GPUs along the pipeline for tensor rank ``y``, data rank ``z``."""
        return [self.gpu(x, y, z) for x in range(self.grid.pp)]

    def dp_group(self, x: int, y: int) -> list[int]:
        """GPUs of the data-parallel group at stage ``x``, tensor rank ``y``."""
        return [self.gpu(x, y, z) for z in range(self.grid.dp)]

    def node_of_block(self, x: int, z: int) -> int:
        """Node hosting the TP group of ``(x, z)`` (blocks never straddle)."""
        return self.cluster.node_of(self.gpu(x, 0, z))

    # ------------------------------------------------------------- mutation

    def with_block_permutation(self, block_to_slot: np.ndarray) -> "Mapping":
        """A new mapping with a different block permutation."""
        return Mapping(self.grid, self.cluster, block_to_slot)

    def copy(self) -> "Mapping":
        """Deep copy (the permutation array is duplicated)."""
        return Mapping(self.grid, self.cluster, self.block_to_slot.copy())

    def to_payload(self) -> dict:
        """JSON-serializable form, *without* the cluster.

        Plans are persisted per cluster (the store record carries the
        cluster spec once, not per mapping), so rehydration supplies it
        back through :meth:`from_payload`.
        """
        return {"grid": self.grid.to_payload(),
                "block_to_slot": self.block_to_slot.tolist()}

    @classmethod
    def from_payload(cls, payload: dict, cluster: ClusterSpec) -> "Mapping":
        """Inverse of :meth:`to_payload`, rebinding to ``cluster``."""
        return cls(WorkerGrid.from_payload(payload["grid"]), cluster,
                   np.array(payload["block_to_slot"], dtype=np.int64))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mapping)
                and self.grid == other.grid
                and np.array_equal(self.block_to_slot, other.block_to_slot))

    def __repr__(self) -> str:
        return (f"Mapping(pp={self.grid.pp}, tp={self.grid.tp}, "
                f"dp={self.grid.dp}, blocks={self.block_to_slot.tolist()})")


def check_slot_geometry(grid: WorkerGrid, cluster: ClusterSpec) -> None:
    """Validate that ``grid`` tiles ``cluster`` into aligned block slots.

    The single source of truth for the two geometry rules every
    block-form consumer (``Mapping``, the index tables below, the
    latency kernel) relies on: worker count matches the GPU count, and
    ``tp`` divides ``gpus_per_node`` so TP groups never straddle nodes.
    """
    if grid.n_workers != cluster.n_gpus:
        raise ValueError(
            f"grid has {grid.n_workers} workers but cluster has "
            f"{cluster.n_gpus} GPUs"
        )
    if cluster.gpus_per_node % grid.tp != 0:
        raise ValueError(
            f"tp={grid.tp} does not divide gpus_per_node="
            f"{cluster.gpus_per_node}; TP groups would straddle nodes"
        )


def sequential_mapping(grid: WorkerGrid, cluster: ClusterSpec) -> Mapping:
    """The naive rank-order mapping every framework defaults to.

    Block ``(x, z)`` lands on slot ``x * dp + z``: tensor ranks are
    adjacent GPUs, data-parallel peers come next, and pipeline stages
    stride across nodes — Megatron-LM's default order and the paper's
    baseline placement (Fig. 4a).
    """
    return Mapping(grid, cluster, np.arange(grid.n_blocks))


def random_block_mapping(grid: WorkerGrid, cluster: ClusterSpec,
                         seed=None) -> Mapping:
    """A uniformly random block permutation (used by SA restarts and tests)."""
    rng = resolve_rng(seed)
    return Mapping(grid, cluster, rng.permutation(grid.n_blocks))


def compact_mapping_after_failure(mapping: Mapping, failed_nodes,
                                  new_cluster: ClusterSpec,
                                  new_grid: WorkerGrid) -> Mapping:
    """Mapping surgery: project a learned placement onto surviving nodes.

    After ``failed_nodes`` drop out of ``mapping.cluster``, the
    survivors are renumbered compactly into ``new_cluster`` (same node
    hardware, fewer nodes) and the worker grid shrinks to ``new_grid``.
    This keeps what simulated annealing learned: surviving TP-group
    blocks retain their relative placement (each old slot is renumbered
    to its compact position), and blocks that lived on failed nodes
    are re-dealt onto the slots freed by the shrink, in logical order.
    The result seeds a warm-start anneal that converges far faster than
    a cold search (:mod:`repro.service.replan`).

    Args:
        mapping: the previously optimized placement.
        failed_nodes: node indices of ``mapping.cluster`` that died.
        new_cluster: the shrunken cluster (``n_nodes`` reduced by the
            failure count; GPU ids compact).
        new_grid: the re-chosen worker grid; its ``tp`` must equal the
            old grid's so slot geometry carries over.
    """
    old_grid, old_cluster = mapping.grid, mapping.cluster
    if new_grid.tp != old_grid.tp:
        raise ValueError(
            f"warm-start surgery requires matching tp (old {old_grid.tp}, "
            f"new {new_grid.tp}); start from a sequential mapping instead"
        )
    if new_grid.n_workers != new_cluster.n_gpus:
        raise ValueError(
            f"new grid has {new_grid.n_workers} workers but the shrunken "
            f"cluster has {new_cluster.n_gpus} GPUs"
        )
    failed = {int(n) for n in failed_nodes}
    for node in failed:
        if not 0 <= node < old_cluster.n_nodes:
            raise ValueError(f"failed node {node} outside the old cluster")
    slots_per_node = old_cluster.gpus_per_node // old_grid.tp
    surviving_slots = [s for s in range(old_grid.n_blocks)
                       if (s // slots_per_node) not in failed]
    compact = {old_slot: i for i, old_slot in enumerate(surviving_slots)}

    # Surviving blocks, in logical block order, keep their (compacted)
    # slots; displaced and excess blocks fill the remaining slots in
    # increasing order.  When new_cluster is exactly the survivor set
    # (the replan path) the preference list already is the permutation;
    # the truncate/fill below covers callers that shrink further (or
    # less) than the failure alone dictates.
    preferred = [compact[s] for s in mapping.block_to_slot.tolist()
                 if s in compact]
    perm = [p for p in preferred if p < new_grid.n_blocks][:new_grid.n_blocks]
    leftover = sorted(set(range(new_grid.n_blocks)) - set(perm))
    perm.extend(leftover)
    return Mapping(new_grid, new_cluster, np.array(perm, dtype=np.int64))
