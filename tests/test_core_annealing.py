"""Simulated-annealing worker dedication."""

import numpy as np
import pytest

from annealing_oracle import anneal_mapping_reference, propose
from repro.core.annealing import SAOptions, _propose_into, anneal_mapping
from repro.parallel import WorkerGrid, sequential_mapping
from repro.utils.rng import DrawStream, resolve_rng


@pytest.fixture
def mapping(tiny_cluster):
    return sequential_mapping(WorkerGrid(pp=4, tp=4, dp=1), tiny_cluster)


class TestOptionsValidation:
    def test_needs_a_budget(self):
        with pytest.raises(ValueError):
            SAOptions(time_limit_s=None, max_iterations=None)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            SAOptions(alpha=1.0)
        with pytest.raises(ValueError):
            SAOptions(alpha=0.0)

    def test_rejects_unknown_move(self):
        with pytest.raises(ValueError):
            SAOptions(moves=("teleport",))

    def test_rejects_empty_moves(self):
        with pytest.raises(ValueError):
            SAOptions(moves=())

    @pytest.mark.parametrize("limit", [float("nan"), float("inf"), 0.0,
                                       -1.0, True])
    def test_time_limit_must_be_finite_and_positive(self, limit):
        # A NaN limit never trips ``elapsed >= limit``: the anneal
        # would never exit.
        with pytest.raises(ValueError, match="time_limit_s"):
            SAOptions(time_limit_s=limit, max_iterations=None)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"),
                                             -1.0, -1e-300, True, False])
    def test_initial_temperature_must_be_finite_and_non_negative(
            self, temperature):
        # NaN and negatives would silently anneal as greedy descent
        # (``temperature > 0.0`` is false); inf would accept every move.
        with pytest.raises(ValueError, match="initial_temperature"):
            SAOptions(initial_temperature=temperature)

    def test_initial_temperature_must_be_a_number(self):
        with pytest.raises(TypeError):
            SAOptions(initial_temperature="1")

    @pytest.mark.parametrize("temperature", [None, 0.0, 0, 1e-3, 2,
                                             np.float64(0.5)])
    def test_initial_temperature_accepts_finite_non_negative(
            self, temperature):
        assert SAOptions(initial_temperature=temperature) \
            .initial_temperature == temperature

    @pytest.mark.parametrize("field", ["max_iterations", "portfolio_k",
                                       "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
    def test_integer_fields_reject_non_ints(self, field, value):
        with pytest.raises(TypeError, match=field):
            SAOptions(**{field: value})

    def test_integer_fields_accept_numpy_ints(self):
        opts = SAOptions(max_iterations=np.int64(5), portfolio_k=np.int32(2),
                         seed=np.uint16(7))
        assert opts.max_iterations == 5 and opts.seed == 7

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SAOptions(seed=-1)

    def test_paper_defaults(self):
        opts = SAOptions()
        assert opts.alpha == 0.999
        assert set(opts.moves) == {"migrate", "swap", "reverse"}


class TestMoves:
    @pytest.mark.parametrize("move", ["migrate", "swap", "reverse"])
    def test_moves_preserve_permutation(self, move):
        rng = resolve_rng(0)
        perm = np.arange(8)
        for _ in range(50):
            perm = propose(perm, move, rng)
            assert sorted(perm.tolist()) == list(range(8))

    @pytest.mark.parametrize("move", ["migrate", "swap", "reverse"])
    def test_moves_change_something_eventually(self, move):
        rng = resolve_rng(1)
        perm = np.arange(8)
        changed = any(
            not np.array_equal(propose(perm, move, rng), perm)
            for _ in range(20)
        )
        assert changed

    def test_single_element_is_noop(self):
        rng = resolve_rng(0)
        perm = np.array([0])
        assert np.array_equal(propose(perm, "swap", rng), perm)

    @pytest.mark.parametrize("move", ["migrate", "swap", "reverse"])
    def test_scratch_form_matches_allocating_form(self, move):
        """``_propose_into`` on a draw stream lands the same permutations
        as the reference ``propose`` on a ``Generator`` of that seed."""
        rng_a = resolve_rng(17)
        rng_b = DrawStream(17)
        perm = resolve_rng(4).permutation(9)
        scratch = np.empty_like(perm)
        for _ in range(200):
            expected = propose(perm, move, rng_a)
            _propose_into(scratch, perm, move, rng_b)
            assert np.array_equal(scratch, expected)
            perm = expected

    def test_scratch_migrate_never_allocates_views_of_source(self):
        """The scratch buffer is fully rewritten; the source is untouched."""
        rng = DrawStream(0)
        perm = np.arange(12)
        before = perm.copy()
        scratch = np.full(12, -1)
        for _ in range(100):
            _propose_into(scratch, perm, "migrate", rng)
            assert sorted(scratch.tolist()) == list(range(12))
            assert np.array_equal(perm, before)

    def test_propose_into_rejects_unknown_move(self):
        with pytest.raises(ValueError, match="unknown move"):
            _propose_into(np.empty(4, dtype=np.int64), np.arange(4),
                          "teleport", DrawStream(0))


class TestAnnealing:
    def test_finds_planted_optimum(self, mapping):
        # Objective: put block b on slot (n-1-b); global optimum is the
        # reversed permutation, reachable by the move set.
        n = mapping.grid.n_blocks
        target = np.arange(n)[::-1]

        def objective(m):
            return float(np.sum(m.block_to_slot != target))

        result = anneal_mapping(mapping, objective,
                                SAOptions(max_iterations=3000, seed=0))
        assert result.value == 0.0
        assert np.array_equal(result.mapping.block_to_slot, target)

    def test_never_worse_than_start(self, mapping):
        rng = resolve_rng(3)
        weights = rng.normal(size=mapping.grid.n_blocks)

        def objective(m):
            return float(weights @ m.block_to_slot)

        result = anneal_mapping(mapping, objective,
                                SAOptions(max_iterations=500, seed=1))
        assert result.value <= result.initial_value

    def test_improvement_property(self, mapping):
        def objective(m):
            return float(np.sum(m.block_to_slot * np.arange(4)))

        result = anneal_mapping(mapping, objective,
                                SAOptions(max_iterations=1000, seed=2))
        assert 0.0 <= result.improvement <= 1.0

    def test_iteration_budget_respected(self, mapping):
        result = anneal_mapping(mapping, lambda m: 1.0,
                                SAOptions(max_iterations=137, seed=0))
        assert result.iterations == 137

    def test_time_budget_respected(self, mapping):
        result = anneal_mapping(
            mapping, lambda m: 1.0,
            SAOptions(time_limit_s=0.05, max_iterations=None, seed=0))
        assert result.elapsed_s < 1.0

    def test_deterministic_given_seed(self, mapping):
        def objective(m):
            return float(np.sum(m.block_to_slot * np.arange(4)))

        a = anneal_mapping(mapping, objective,
                           SAOptions(max_iterations=400, seed=9))
        b = anneal_mapping(mapping, objective,
                           SAOptions(max_iterations=400, seed=9))
        assert a.value == b.value
        assert a.mapping == b.mapping

    def test_history_is_non_increasing(self, mapping):
        rng = resolve_rng(5)
        weights = rng.normal(size=(4, 4))

        def objective(m):
            return float(sum(weights[b, s]
                             for b, s in enumerate(m.block_to_slot)))

        result = anneal_mapping(mapping, objective,
                                SAOptions(max_iterations=2000, seed=4))
        assert all(a >= b for a, b in zip(result.history, result.history[1:]))

    def test_constant_objective_safe(self, mapping):
        result = anneal_mapping(mapping, lambda m: 5.0,
                                SAOptions(max_iterations=100, seed=0))
        assert result.value == 5.0

    def test_initial_mapping_unchanged(self, mapping):
        before = mapping.block_to_slot.copy()
        anneal_mapping(mapping, lambda m: float(m.block_to_slot[0]),
                       SAOptions(max_iterations=200, seed=0))
        assert np.array_equal(mapping.block_to_slot, before)

    def test_reverse_only_move_set(self, mapping):
        result = anneal_mapping(
            mapping, lambda m: float(m.block_to_slot[0]),
            SAOptions(max_iterations=300, moves=("reverse",), seed=0))
        assert result.iterations == 300

    def test_matches_reference_implementation(self, mapping):
        """Same seed → the fast loop replays the executable spec."""
        rng = resolve_rng(8)
        weights = rng.normal(size=(4, 4))

        def objective(m):
            return float(sum(weights[b, s]
                             for b, s in enumerate(m.block_to_slot)))

        options = SAOptions(max_iterations=500, seed=6)
        ref = anneal_mapping_reference(mapping, objective, options)
        fast = anneal_mapping(mapping, objective, options)
        assert fast.value == ref.value
        assert fast.mapping == ref.mapping
        assert fast.iterations == ref.iterations
        assert fast.accepted == ref.accepted
        assert fast.history == ref.history
