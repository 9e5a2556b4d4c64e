"""Worker grids and block mappings (Eq. 2's bijection)."""

import numpy as np
import pytest

from repro.parallel import (
    Mapping,
    WorkerGrid,
    check_slot_geometry,
    random_block_mapping,
    sequential_mapping,
)


@pytest.fixture
def grid():
    return WorkerGrid(pp=2, tp=4, dp=2)


class TestWorkerGrid:
    def test_counts(self, grid):
        assert grid.n_workers == 16
        assert grid.n_blocks == 4

    def test_block_index_roundtrip(self, grid):
        for x in range(grid.pp):
            for z in range(grid.dp):
                assert grid.block_coords(grid.block_index(x, z)) == (x, z)

    def test_rejects_bad_coords(self, grid):
        with pytest.raises(ValueError):
            grid.block_index(2, 0)

    def test_rejects_bad_block(self, grid):
        with pytest.raises(ValueError):
            grid.block_coords(4)


class TestMappingConstruction:
    def test_worker_gpu_count_must_match(self, grid, tiny_cluster):
        small = tiny_cluster.scaled_to(1)
        with pytest.raises(ValueError):
            Mapping(grid, small, np.arange(grid.n_blocks))

    def test_tp_must_divide_node(self, tiny_cluster):
        grid = WorkerGrid(pp=2, tp=8, dp=1)  # tp 8 > 4 gpus/node
        import numpy as np
        with pytest.raises(ValueError):
            Mapping(grid, tiny_cluster, np.arange(grid.n_blocks))

    def test_rejects_non_permutation(self, grid, tiny_cluster):
        with pytest.raises(ValueError):
            Mapping(grid, tiny_cluster, np.zeros(grid.n_blocks, dtype=int))

    def test_rejects_wrong_length(self, grid, tiny_cluster):
        with pytest.raises(ValueError):
            Mapping(grid, tiny_cluster, np.arange(3))


class TestSequentialMapping:
    def test_bijection(self, grid, tiny_cluster):
        m = sequential_mapping(grid, tiny_cluster)
        gpus = {m.gpu(x, y, z) for x in range(2) for y in range(4)
                for z in range(2)}
        assert gpus == set(range(16))

    def test_tp_group_is_contiguous(self, grid, tiny_cluster):
        m = sequential_mapping(grid, tiny_cluster)
        group = m.tp_group(0, 0)
        assert group == [0, 1, 2, 3]

    def test_tp_group_within_node(self, grid, tiny_cluster):
        m = sequential_mapping(grid, tiny_cluster)
        for x in range(2):
            for z in range(2):
                nodes = {tiny_cluster.node_of(g) for g in m.tp_group(x, z)}
                assert len(nodes) == 1

    def test_pipeline_chain_length(self, grid, tiny_cluster):
        m = sequential_mapping(grid, tiny_cluster)
        assert len(m.pipeline_chain(0, 0)) == grid.pp

    def test_dp_group_length(self, grid, tiny_cluster):
        m = sequential_mapping(grid, tiny_cluster)
        assert len(m.dp_group(0, 0)) == grid.dp

    def test_inverse_lookup(self, grid, tiny_cluster):
        m = sequential_mapping(grid, tiny_cluster)
        for x in range(2):
            for y in range(4):
                for z in range(2):
                    assert m.worker_of_gpu(m.gpu(x, y, z)) == (x, y, z)

    def test_groups_are_disjoint_partitions(self, grid, tiny_cluster):
        m = sequential_mapping(grid, tiny_cluster)
        all_tp = [g for x in range(2) for z in range(2)
                  for g in m.tp_group(x, z)]
        assert sorted(all_tp) == list(range(16))


class TestRandomAndMutation:
    def test_random_is_valid_bijection(self, grid, tiny_cluster):
        m = random_block_mapping(grid, tiny_cluster, seed=9)
        gpus = {m.gpu(x, y, z) for x in range(2) for y in range(4)
                for z in range(2)}
        assert gpus == set(range(16))

    def test_random_seed_deterministic(self, grid, tiny_cluster):
        a = random_block_mapping(grid, tiny_cluster, seed=4)
        b = random_block_mapping(grid, tiny_cluster, seed=4)
        assert a == b

    def test_with_block_permutation(self, grid, tiny_cluster):
        m = sequential_mapping(grid, tiny_cluster)
        perm = np.array([3, 2, 1, 0])
        m2 = m.with_block_permutation(perm)
        assert m2.gpu(0, 0, 0) == 12  # block (0,0) -> slot 3 -> gpu 12

    def test_copy_is_independent(self, grid, tiny_cluster):
        m = sequential_mapping(grid, tiny_cluster)
        c = m.copy()
        c.block_to_slot[0], c.block_to_slot[1] = c.block_to_slot[1], c.block_to_slot[0]
        assert m.gpu(0, 0, 0) != c.gpu(0, 0, 0)

    def test_equality(self, grid, tiny_cluster):
        a = sequential_mapping(grid, tiny_cluster)
        b = sequential_mapping(grid, tiny_cluster)
        assert a == b
        shuffled = a.with_block_permutation(np.array([1, 0, 2, 3]))
        assert a != shuffled

    def test_tp_stays_in_node_after_permutation(self, grid, tiny_cluster):
        m = random_block_mapping(grid, tiny_cluster, seed=2)
        for x in range(2):
            for z in range(2):
                nodes = {tiny_cluster.node_of(g) for g in m.tp_group(x, z)}
                assert len(nodes) == 1


class TestSlotGeometry:
    """``check_slot_geometry``: the grid must tile the cluster's nodes."""

    def test_rejects_mismatched_cluster(self, tiny_cluster):
        too_big = WorkerGrid(pp=4, tp=4, dp=4)
        with pytest.raises(ValueError, match="workers"):
            check_slot_geometry(too_big, tiny_cluster)

    def test_rejects_straddling_tp(self, tiny_cluster):
        # tp=8 would straddle the 4-GPU nodes even though counts match.
        grid = WorkerGrid(pp=1, tp=8, dp=2)
        with pytest.raises(ValueError, match="straddle"):
            check_slot_geometry(grid, tiny_cluster)
