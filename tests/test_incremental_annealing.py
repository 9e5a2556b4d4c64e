"""The kernel's exactness contracts: delta moves, batches, portfolios.

Three exactness claims, the last two load-bearing for plan-cache byte
identity:

* ``IncrementalEvaluator.propose`` equals a full ``evaluate_perm``
  re-score *exactly* (not approximately) for every move kind, shape,
  and ablation corner;
* ``evaluate_batch`` rows are bit-identical to per-row
  ``evaluate_perm`` calls;
* the annealer — portfolio bookkeeping, flight recorder — draws the
  same RNG stream and lands the same floats as the reference loop in
  ``annealing_oracle``.

The suites below sweep randomized move walks over every (pp, tp, dp)
factorization of the tiny cluster (including the degenerate pp==1,
tp==1, dp==1 axes), with recompute and the latency-model ablation
switches on and off.
"""

from __future__ import annotations

import numpy as np
import pytest

from annealing_oracle import anneal_mapping_reference, apply_move
from repro.cluster import Fabric, HeterogeneityModel
from repro.core.annealing import SAOptions, _build_portfolio, anneal_mapping
from repro.core.latency_kernel import (
    IncrementalEvaluator,
    LatencyKernel,
    pipette_kernel,
)
from repro.core.latency_model import LatencyModelOptions, latency_with_options
from repro.model import get_model
from repro.obs.recorder import FlightRecorder
from repro.parallel import ParallelConfig, WorkerGrid, sequential_mapping
from repro.profiling import profile_compute

#: Every (pp, tp, dp) factorization of the 16-GPU tiny cluster whose TP
#: groups fit a 4-GPU node and whose stages fit the toy model's
#: 4 layers — includes all three degenerate axes.
SHAPES = [
    (1, 4, 4), (2, 4, 2), (4, 4, 1),
    (1, 2, 8), (2, 2, 4), (4, 2, 2),
    (1, 1, 16), (2, 1, 8), (4, 1, 4),
]

#: Ablation corners exercised by the exactness sweeps.
OPTION_DRAWS = [
    LatencyModelOptions(),
    LatencyModelOptions(dp_exposure_aware=True),
    LatencyModelOptions(dp_exposure_aware=True, collective_efficiency=0.88),
    LatencyModelOptions(hidden_critical_path=False),
]


@pytest.fixture(scope="module")
def tiny_cluster_module():
    from repro.cluster.topology import ClusterSpec, GpuSpec, LinkSpec, NodeSpec
    from repro.units import GIB

    gpu = GpuSpec(name="TestGPU", memory_bytes=4 * GIB, peak_flops=10e12,
                  achievable_fraction=0.5, hbm_gb_s=500.0)
    node = NodeSpec(gpus_per_node=4, gpu=gpu,
                    intra_link=LinkSpec("TestNVLink", 100.0, alpha_s=1e-6))
    return ClusterSpec(name="tiny", n_nodes=4, node=node,
                       inter_link=LinkSpec("TestIB", 10.0, alpha_s=1e-5))


@pytest.fixture(scope="module")
def world(tiny_cluster_module):
    cluster = tiny_cluster_module
    fabric = Fabric(cluster, heterogeneity=HeterogeneityModel(), seed=11)
    model = get_model("gpt-toy")
    profile = profile_compute(model, cluster, noise_sigma=0.01, seed=5)
    return cluster, model, fabric.bandwidth(), profile


def _config(pp, tp, dp, recompute=False):
    return ParallelConfig(pp=pp, tp=tp, dp=dp, micro_batch=2,
                          global_batch=2 * dp * 4, recompute=recompute)


def _random_move(rng: np.random.Generator, n: int):
    """A random (kind, i, j) spec valid for apply_move on length n."""
    kind = ("swap", "migrate", "reverse")[int(rng.integers(3))]
    if kind == "swap":
        i, j = rng.choice(n, size=2, replace=False)
    elif kind == "migrate":
        i, j = int(rng.integers(n)), int(rng.integers(n - 1))
    else:
        i = int(rng.integers(n - 1))
        j = int(rng.integers(i + 2, n + 1))
    return (kind, int(i), int(j))


# ------------------------------------------------------------- apply_move


class TestApplyMove:
    def test_swap(self):
        perm = np.arange(6)
        out = apply_move(perm, ("swap", 1, 4))
        assert list(out) == [0, 4, 2, 3, 1, 5]

    def test_migrate_matches_delete_insert(self):
        rng = np.random.default_rng(0)
        perm = rng.permutation(8)
        for i in range(8):
            for j in range(7):
                spec = np.insert(np.delete(perm, i), j, perm[i])
                assert np.array_equal(
                    apply_move(perm, ("migrate", i, j)), spec)

    def test_reverse(self):
        perm = np.arange(6)
        out = apply_move(perm, ("reverse", 1, 5))
        assert list(out) == [0, 4, 3, 2, 1, 5]

    def test_input_never_mutated(self):
        perm = np.arange(6)
        apply_move(perm, ("swap", 0, 5))
        apply_move(perm, ("migrate", 2, 0))
        apply_move(perm, ("reverse", 0, 6))
        assert list(perm) == list(range(6))

    @pytest.mark.parametrize("move", [
        ("swap", -1, 0), ("swap", 0, 6),
        ("migrate", 6, 0), ("migrate", 0, 5),
        ("reverse", 0, 1), ("reverse", 3, 2), ("reverse", 0, 7),
        ("teleport", 0, 1),
    ])
    def test_invalid_moves_rejected(self, move):
        with pytest.raises(ValueError):
            apply_move(np.arange(6), move)


# ------------------------------------------------- delta / batch exactness


def _delta(kernel, perm, move):
    """``latency(move(perm)) - latency(perm)`` through a fresh evaluator."""
    inc = IncrementalEvaluator(kernel)
    inc.bind(perm)
    return inc.propose(apply_move(perm, move)) - inc.value


class TestDeltaForMove:
    @pytest.mark.parametrize("pp,tp,dp", SHAPES)
    @pytest.mark.parametrize("recompute", [False, True])
    def test_random_walk_matches_full_rescore(self, world, pp, tp, dp,
                                              recompute):
        cluster, model, bandwidth, profile = world
        config = _config(pp, tp, dp, recompute=recompute)
        kernel = pipette_kernel(model, config, cluster, bandwidth, profile)
        grid = WorkerGrid(pp=pp, tp=tp, dp=dp)
        perm = np.asarray(
            sequential_mapping(grid, cluster).block_to_slot, dtype=np.int64)
        n = len(perm)
        if n < 3:
            pytest.skip("single-block permutation has no moves")
        rng = np.random.default_rng(pp * 100 + tp * 10 + dp)
        for _ in range(40):
            move = _random_move(rng, n)
            after = apply_move(perm, move)
            full_delta = kernel.evaluate_perm(after) \
                - kernel.evaluate_perm(perm)
            assert _delta(kernel, perm, move) == full_delta
            perm = after  # walk on, so deltas are probed off-optimum too

    @pytest.mark.parametrize("options", OPTION_DRAWS)
    def test_exact_under_every_ablation(self, world, options):
        cluster, model, bandwidth, profile = world
        config = _config(4, 2, 2)
        kernel = LatencyKernel(model, config, cluster, bandwidth, profile,
                               options)
        grid = WorkerGrid(pp=4, tp=2, dp=2)
        perm = np.asarray(
            sequential_mapping(grid, cluster).block_to_slot, dtype=np.int64)
        rng = np.random.default_rng(7)
        for _ in range(40):
            move = _random_move(rng, len(perm))
            after = apply_move(perm, move)
            full_delta = kernel.evaluate_perm(after) \
                - kernel.evaluate_perm(perm)
            assert _delta(kernel, perm, move) == full_delta
            perm = after

    def test_identity_move_is_zero(self, world):
        cluster, model, bandwidth, profile = world
        kernel = pipette_kernel(model, _config(4, 2, 2), cluster, bandwidth,
                                profile)
        perm = np.asarray(
            sequential_mapping(WorkerGrid(pp=4, tp=2, dp=2),
                               cluster).block_to_slot, dtype=np.int64)
        assert _delta(kernel, perm, ("swap", 3, 3)) == 0.0


class TestEvaluateBatch:
    @pytest.mark.parametrize("pp,tp,dp", SHAPES)
    def test_rows_bit_identical_to_evaluate_perm(self, world, pp, tp, dp):
        cluster, model, bandwidth, profile = world
        kernel = pipette_kernel(model, _config(pp, tp, dp), cluster,
                                bandwidth, profile)
        n = pp * dp
        rng = np.random.default_rng(pp + tp + dp)
        perms = np.stack([rng.permutation(n) for _ in range(24)]
                         ).astype(np.int64)
        batch = kernel.evaluate_batch(perms)
        singles = np.array([kernel.evaluate_perm(p) for p in perms])
        assert np.array_equal(batch, singles)

    @pytest.mark.parametrize("options", OPTION_DRAWS)
    def test_exact_under_every_ablation(self, world, options):
        cluster, model, bandwidth, profile = world
        config = _config(2, 2, 4)
        kernel = LatencyKernel(model, config, cluster, bandwidth, profile,
                               options)
        rng = np.random.default_rng(13)
        perms = np.stack([rng.permutation(8) for _ in range(16)]
                         ).astype(np.int64)
        batch = kernel.evaluate_batch(perms)
        singles = np.array([kernel.evaluate_perm(p) for p in perms])
        assert np.array_equal(batch, singles)

    def test_agrees_with_reference_model(self, world):
        cluster, model, bandwidth, profile = world
        config = _config(4, 2, 2)
        kernel = LatencyKernel(model, config, cluster, bandwidth, profile,
                               LatencyModelOptions(dp_exposure_aware=True))
        grid = WorkerGrid(pp=4, tp=2, dp=2)
        base = sequential_mapping(grid, cluster)
        rng = np.random.default_rng(3)
        perms = np.stack([rng.permutation(8) for _ in range(6)]
                         ).astype(np.int64)
        expected = [latency_with_options(
            model, config, base.with_block_permutation(p.copy()), bandwidth,
            profile, options=LatencyModelOptions(dp_exposure_aware=True))
            for p in perms]
        assert list(kernel.evaluate_batch(perms)) == expected

    def test_rejects_wrong_shape(self, world):
        cluster, model, bandwidth, profile = world
        kernel = pipette_kernel(model, _config(4, 2, 2), cluster, bandwidth,
                                profile)
        with pytest.raises(ValueError, match=r"\(K, 8\)"):
            kernel.evaluate_batch(np.arange(8))
        with pytest.raises(ValueError, match=r"\(K, 8\)"):
            kernel.evaluate_batch(np.zeros((2, 7), dtype=np.int64))


class TestIncrementalEvaluator:
    def test_bind_propose_accept_cycle(self, world):
        cluster, model, bandwidth, profile = world
        kernel = pipette_kernel(model, _config(4, 2, 2), cluster, bandwidth,
                                profile)
        inc = IncrementalEvaluator(kernel)
        perm = np.asarray(
            sequential_mapping(WorkerGrid(pp=4, tp=2, dp=2),
                               cluster).block_to_slot, dtype=np.int64)
        assert inc.bind(perm) == kernel.evaluate_perm(perm)
        rng = np.random.default_rng(5)
        for _ in range(30):
            cand = apply_move(inc.perm, _random_move(rng, len(perm)))
            assert inc.propose(cand) == kernel.evaluate_perm(cand)
            if rng.random() < 0.5:
                inc.accept()
                assert np.array_equal(inc.perm, cand)
                assert inc.value == kernel.evaluate_perm(cand)

    def test_reject_leaves_bound_state_untouched(self, world):
        cluster, model, bandwidth, profile = world
        kernel = pipette_kernel(model, _config(2, 2, 4), cluster, bandwidth,
                                profile)
        inc = IncrementalEvaluator(kernel)
        perm = np.asarray(
            sequential_mapping(WorkerGrid(pp=2, tp=2, dp=4),
                               cluster).block_to_slot, dtype=np.int64)
        bound = inc.bind(perm)
        inc.propose(apply_move(perm, ("swap", 0, 7)))
        assert np.array_equal(inc.perm, perm)
        assert inc.value == bound

    def test_accept_without_proposal_raises(self, world):
        cluster, model, bandwidth, profile = world
        kernel = pipette_kernel(model, _config(4, 2, 2), cluster, bandwidth,
                                profile)
        inc = IncrementalEvaluator(kernel)
        with pytest.raises(RuntimeError):
            inc.accept()


# --------------------------------------------------------- seed identity


class TestSeedIdentity:
    @pytest.mark.parametrize("pp,tp,dp", [(4, 2, 2), (2, 4, 2), (1, 2, 8),
                                          (4, 1, 4), (2, 2, 4)])
    def test_kernel_loop_matches_reference(self, world, pp, tp, dp):
        # The kernel-scored loop must replay the pre-kernel reference
        # implementation's trajectory bit for bit.
        cluster, model, bandwidth, profile = world
        config = _config(pp, tp, dp)
        kernel = pipette_kernel(model, config, cluster, bandwidth, profile)
        initial = sequential_mapping(WorkerGrid(pp=pp, tp=tp, dp=dp), cluster)
        options = SAOptions(max_iterations=400, seed=pp + tp + dp)
        fast = anneal_mapping(initial, kernel, options)
        reference = anneal_mapping_reference(initial, kernel, options)
        assert fast.value == reference.value
        assert fast.history == reference.history
        assert fast.accepted == reference.accepted
        assert fast.evaluations == reference.evaluations
        assert np.array_equal(fast.mapping.block_to_slot,
                              reference.mapping.block_to_slot)

    def test_portfolio_collection_never_perturbs_the_search(self, world):
        cluster, model, bandwidth, profile = world
        config = _config(4, 2, 2)
        kernel = pipette_kernel(model, config, cluster, bandwidth, profile)
        initial = sequential_mapping(WorkerGrid(pp=4, tp=2, dp=2), cluster)
        plain = anneal_mapping(initial, kernel,
                               SAOptions(max_iterations=400, seed=9))
        tracked = anneal_mapping(initial, kernel,
                                 SAOptions(max_iterations=400, seed=9,
                                           portfolio_k=6))
        assert tracked.value == plain.value
        assert tracked.history == plain.history
        assert tracked.evaluations == plain.evaluations
        assert np.array_equal(tracked.mapping.block_to_slot,
                              plain.mapping.block_to_slot)

    def test_recorder_never_perturbs_the_kernel_loop(self, world):
        cluster, model, bandwidth, profile = world
        config = _config(2, 2, 4)
        kernel = pipette_kernel(model, config, cluster, bandwidth, profile)
        initial = sequential_mapping(WorkerGrid(pp=2, tp=2, dp=4), cluster)
        options = SAOptions(max_iterations=300, seed=2, portfolio_k=3)
        bare = anneal_mapping(initial, kernel, options)
        recorder = FlightRecorder()
        observed = anneal_mapping(initial, kernel, options, recorder=recorder)
        assert observed.value == bare.value
        assert observed.history == bare.history
        assert np.array_equal(observed.mapping.block_to_slot,
                              bare.mapping.block_to_slot)


# ------------------------------------------------------------- SAOptions


class TestOptionsKnobs:
    def test_portfolio_k_validated(self):
        with pytest.raises(ValueError, match="portfolio_k"):
            SAOptions(max_iterations=10, portfolio_k=0)

    def test_with_seed_preserves_new_knobs(self):
        options = SAOptions(max_iterations=123, alpha=0.99, seed=1,
                            portfolio_k=5, moves=("swap", "reverse"))
        reseeded = options.with_seed(42)
        assert reseeded.seed == 42
        assert reseeded.portfolio_k == 5
        assert reseeded.moves == ("swap", "reverse")
        assert reseeded.max_iterations == 123
        assert reseeded.alpha == 0.99


# ------------------------------------------------------------- portfolio


class TestPortfolio:
    def test_entry_zero_is_the_best(self, world):
        cluster, model, bandwidth, profile = world
        kernel = pipette_kernel(model, _config(4, 2, 2), cluster, bandwidth,
                                profile)
        initial = sequential_mapping(WorkerGrid(pp=4, tp=2, dp=2), cluster)
        result = anneal_mapping(initial, kernel,
                                SAOptions(max_iterations=600, seed=4,
                                          portfolio_k=4))
        mapping, value = result.portfolio[0]
        assert value == result.value
        assert np.array_equal(mapping.block_to_slot,
                              result.mapping.block_to_slot)

    def test_entries_distinct_sorted_and_exactly_valued(self, world):
        cluster, model, bandwidth, profile = world
        kernel = pipette_kernel(model, _config(4, 2, 2), cluster, bandwidth,
                                profile)
        initial = sequential_mapping(WorkerGrid(pp=4, tp=2, dp=2), cluster)
        result = anneal_mapping(initial, kernel,
                                SAOptions(max_iterations=600, seed=4,
                                          portfolio_k=5))
        assert 1 < len(result.portfolio) <= 5
        values = [v for _, v in result.portfolio]
        assert values == sorted(values)
        keys = {np.asarray(m.block_to_slot, dtype=np.int64).tobytes()
                for m, _ in result.portfolio}
        assert len(keys) == len(result.portfolio)
        for mapping, value in result.portfolio:
            perm = np.asarray(mapping.block_to_slot, dtype=np.int64)
            assert kernel.evaluate_perm(perm) == value

    def test_collection_costs_zero_objective_calls(self, world):
        cluster, model, bandwidth, profile = world
        initial = sequential_mapping(WorkerGrid(pp=4, tp=2, dp=2),
                                     cluster)
        kernel = pipette_kernel(model, _config(4, 2, 2), cluster, bandwidth,
                                profile)
        calls = {"n": 0}

        def counting(mapping):
            calls["n"] += 1
            return float(kernel(mapping))

        iterations = 120
        anneal_mapping(initial, counting,
                       SAOptions(max_iterations=iterations, seed=1,
                                 initial_temperature=0.5, portfolio_k=8))
        assert calls["n"] == iterations + 1

    def test_portfolio_k_one_keeps_only_the_best(self, world):
        cluster, model, bandwidth, profile = world
        kernel = pipette_kernel(model, _config(4, 2, 2), cluster, bandwidth,
                                profile)
        initial = sequential_mapping(WorkerGrid(pp=4, tp=2, dp=2), cluster)
        result = anneal_mapping(initial, kernel,
                                SAOptions(max_iterations=200, seed=1))
        assert len(result.portfolio) == 1
        assert result.portfolio[0][1] == result.value

    @pytest.mark.parametrize("seed", range(4))
    def test_runners_are_the_head_of_the_sorted_pool(self, world, seed):
        """The runners-up equal the sorted selection they replace, on
        pools whose values tie — a few values over many states."""
        cluster = world[0]
        grid = WorkerGrid(pp=2, tp=2, dp=4)
        initial = sequential_mapping(grid, cluster)
        rng = np.random.default_rng(seed)
        pool = {rng.permutation(grid.n_blocks).astype(np.int64).tobytes():
                float(rng.choice([0.5, 1.0, 2.0])) for _ in range(300)}
        best_key = next(iter(pool))
        best = initial.with_block_permutation(
            np.frombuffer(best_key, dtype=np.int64).copy())
        for portfolio_k in (1, 2, 3, 7, len(pool) + 2):
            portfolio = _build_portfolio(initial, best, pool[best_key],
                                         pool, portfolio_k)
            expected = sorted((value, key) for key, value in pool.items()
                              if key != best_key)[:portfolio_k - 1]
            assert [(value, np.asarray(m.block_to_slot).tobytes())
                    for m, value in portfolio[1:]] == expected
            assert portfolio[0] == (best, pool[best_key])


# -------------------------------------------------- flight-recorder stats


class TestRecorderMoveStats:
    def _run(self, world, **sa_kwargs):
        cluster, model, bandwidth, profile = world
        kernel = pipette_kernel(model, _config(4, 2, 2), cluster, bandwidth,
                                profile)
        initial = sequential_mapping(WorkerGrid(pp=4, tp=2, dp=2), cluster)
        recorder = FlightRecorder()
        result = anneal_mapping(initial, kernel,
                                SAOptions(seed=3, **sa_kwargs),
                                recorder=recorder)
        return result, recorder

    def test_per_move_kind_counters(self, world):
        result, recorder = self._run(world, max_iterations=300)
        assert set(recorder.moves_proposed) <= {"migrate", "swap", "reverse"}
        assert sum(recorder.moves_proposed.values()) == result.iterations
        assert sum(recorder.moves_accepted.values()) == result.accepted
        for kind, accepted in recorder.moves_accepted.items():
            assert accepted <= recorder.moves_proposed[kind]

    def test_payload_carries_move_and_delta_stats(self, world):
        result, recorder = self._run(world, max_iterations=120)
        payload = recorder.to_payload()
        assert payload["moves"]["proposed"] == recorder.moves_proposed
        assert payload["moves"]["accepted"] == recorder.moves_accepted
