"""The vectorized latency kernel: equivalence, identity, and wiring.

The kernel's contract is stronger than "numerically close": for every
mapping it must return the *bit-identical* float the reference model
(:func:`repro.core.latency_model.latency_with_options`) returns, which
is what makes the fast annealer's accept/reject trajectory — and hence
every cached plan — indistinguishable from the pre-kernel code path.
The property suite below checks the 1e-9 acceptance bound and the
bitwise guarantee across randomized worlds, degenerate parallelism
axes, and every ablation switch.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annealing_oracle import anneal_mapping_reference
from repro.cluster import Fabric, HeterogeneityModel
from repro.cluster.fabric import BandwidthMatrix
from repro.cluster.presets import high_end_cluster, mid_range_cluster
from repro.core.annealing import SAOptions, anneal_mapping
from repro.core.configurator import SearchContext, candidate_kernel
from repro.core.latency_kernel import (
    IncrementalEvaluator,
    LatencyKernel,
    pipette_kernel,
)
from repro.core.latency_model import (
    LatencyModelOptions,
    _stage_dp_time,
    latency_with_options,
    pipette_latency,
)
from repro.model import get_model
from repro.parallel import (
    Mapping,
    ParallelConfig,
    WorkerGrid,
    random_block_mapping,
    sequential_mapping,
)
from repro.profiling import profile_compute
from repro.sim.schedule import registered_schedules
from repro.utils.validation import divisors

#: Every (pp, tp, dp) factorization of the 16-GPU tiny cluster whose TP
#: groups fit a 4-GPU node and whose stages fit the toy model's
#: 4 layers — includes all three degenerate axes.
TINY_SHAPES = [
    (1, 4, 4), (2, 4, 2), (4, 4, 1),
    (1, 2, 8), (2, 2, 4), (4, 2, 2),
    (1, 1, 16), (2, 1, 8), (4, 1, 4),
]

#: The (pp, tp, dp) grids a 16-node Table-1 cold search anneals:
#: full-node TP groups (one slot per node) and half-node ones (two).
PRESET_GRIDS = [
    (4, 8, 4), (2, 8, 8), (8, 8, 2), (1, 8, 16),
    (8, 4, 4), (4, 4, 8), (2, 4, 16),
]

#: The ablation corners of the latency model.
OPTION_DRAWS = [
    LatencyModelOptions(),
    LatencyModelOptions(dp_exposure_aware=True),
    LatencyModelOptions(dp_exposure_aware=True, collective_efficiency=0.88),
    LatencyModelOptions(hidden_critical_path=False),
    LatencyModelOptions(hidden_critical_path=False, collective_efficiency=0.7),
]


@pytest.fixture(scope="module")
def world(tiny_cluster_module):
    cluster = tiny_cluster_module
    fabric = Fabric(cluster, heterogeneity=HeterogeneityModel(), seed=11)
    model = get_model("gpt-toy")
    profile = profile_compute(model, cluster, noise_sigma=0.01, seed=5)
    return cluster, model, fabric.bandwidth(), profile


@pytest.fixture(scope="module")
def tiny_cluster_module():
    # Module-scoped twin of the function-scoped ``tiny_cluster``
    # fixture, so the property sweep builds its world once.
    from repro.cluster.topology import ClusterSpec, GpuSpec, LinkSpec, NodeSpec
    from repro.units import GIB

    gpu = GpuSpec(name="TestGPU", memory_bytes=4 * GIB, peak_flops=10e12,
                  achievable_fraction=0.5, hbm_gb_s=500.0)
    node = NodeSpec(gpus_per_node=4, gpu=gpu,
                    intra_link=LinkSpec("TestNVLink", 100.0, alpha_s=1e-6))
    return ClusterSpec(name="tiny", n_nodes=4, node=node,
                       inter_link=LinkSpec("TestIB", 10.0, alpha_s=1e-5))


def _config(pp, tp, dp, micro_batch=2, recompute=False):
    return ParallelConfig(pp=pp, tp=tp, dp=dp, micro_batch=micro_batch,
                          global_batch=micro_batch * dp * 4,
                          recompute=recompute)


class TestKernelEquivalence:
    @pytest.mark.parametrize("shape", TINY_SHAPES)
    def test_matches_reference_within_1e9(self, world, shape):
        """Acceptance bound: ≤ 1e-9 relative across randomized draws."""
        cluster, model, bw, profile = world
        pp, tp, dp = shape
        rng = np.random.default_rng(99)
        for micro_batch in (1, 2):
            for recompute in (False, True):
                config = _config(pp, tp, dp, micro_batch, recompute)
                for options in OPTION_DRAWS:
                    kernel = LatencyKernel(model, config, cluster, bw,
                                           profile, options)
                    for _ in range(3):
                        mapping = random_block_mapping(
                            WorkerGrid(pp, tp, dp), cluster,
                            seed=int(rng.integers(1 << 31)))
                        ref = latency_with_options(model, config, mapping,
                                                   bw, profile, options)
                        fast = kernel.evaluate_perm(mapping.block_to_slot)
                        assert math.isclose(fast, ref, rel_tol=1e-9,
                                            abs_tol=0.0)

    @pytest.mark.parametrize("shape", TINY_SHAPES)
    def test_bit_identical_to_reference(self, world, shape):
        """The stronger guarantee the trajectory identity rests on."""
        cluster, model, bw, profile = world
        pp, tp, dp = shape
        config = _config(pp, tp, dp)
        for options in OPTION_DRAWS:
            kernel = LatencyKernel(model, config, cluster, bw, profile,
                                   options)
            for seed in range(4):
                mapping = random_block_mapping(WorkerGrid(pp, tp, dp),
                                               cluster, seed=seed)
                ref = latency_with_options(model, config, mapping, bw,
                                           profile, options)
                assert kernel.evaluate_perm(mapping.block_to_slot) == ref
                assert kernel(mapping) == ref

    def test_pipette_kernel_matches_pipette_latency(self, world):
        cluster, model, bw, profile = world
        config = _config(2, 4, 2)
        kernel = pipette_kernel(model, config, cluster, bw, profile)
        for seed in range(5):
            mapping = random_block_mapping(WorkerGrid(2, 4, 2), cluster,
                                           seed=seed)
            assert kernel(mapping) == pipette_latency(model, config, mapping,
                                                      bw, profile)

    def test_candidate_kernel_matches_candidate_latency(self, world):
        cluster, model, bw, profile = world
        config = _config(4, 2, 2)
        ctx = SearchContext(cluster=cluster, model=model, bandwidth=bw,
                            profile=profile, memory_estimator=None,
                            sa=SAOptions(max_iterations=10))
        kernel = candidate_kernel(ctx, config)
        mapping = sequential_mapping(WorkerGrid(4, 2, 2), cluster)
        assert kernel(mapping) == pipette_latency(model, config, mapping,
                                                  bw, profile)

    def test_nominal_matrix_supported(self, world):
        """Prior-art style evaluation: any matrix may be handed in."""
        cluster, model, _, profile = world
        nominal = Fabric(cluster, seed=0).nominal_bandwidth()
        config = _config(2, 2, 4)
        options = LatencyModelOptions(hidden_critical_path=False)
        kernel = LatencyKernel(model, config, cluster, nominal, profile,
                               options)
        mapping = sequential_mapping(WorkerGrid(2, 2, 4), cluster)
        assert kernel(mapping) == latency_with_options(
            model, config, mapping, nominal, profile, options)


@pytest.fixture(scope="module", params=["mid-range", "high-end"])
def preset_world(request):
    make = {"mid-range": mid_range_cluster,
            "high-end": high_end_cluster}[request.param]
    cluster = make(16)
    fabric = Fabric(cluster, heterogeneity=HeterogeneityModel(), seed=3)
    model = get_model("gpt-1.1b")
    profile = profile_compute(model, cluster, seed=3)
    return cluster, model, fabric.bandwidth(), profile


class TestPresetSweep:
    """Every preset grid x every schedule: the three paths agree bitwise.

    ``evaluate_perm`` takes minimum bandwidths before its transforms
    and gathers through position tables; ``evaluate_batch`` loops over
    it; ``latency_with_options`` walks the groups.  All three must land
    on the same float for every permutation.
    """

    @pytest.mark.parametrize("schedule", registered_schedules())
    @pytest.mark.parametrize("shape", PRESET_GRIDS)
    def test_perm_batch_and_reference_agree(self, preset_world, shape,
                                            schedule):
        cluster, model, bw, profile = preset_world
        pp, tp, dp = shape
        config = ParallelConfig(pp=pp, tp=tp, dp=dp, micro_batch=1,
                                global_batch=dp * 2 * pp, schedule=schedule)
        grid = WorkerGrid(pp, tp, dp)
        for options in (None, LatencyModelOptions()):
            kernel = pipette_kernel(model, config, cluster, bw, profile) \
                if options is None else LatencyKernel(
                    model, config, cluster, bw, profile, options)
            mappings = [sequential_mapping(grid, cluster)] + [
                random_block_mapping(grid, cluster, seed=seed)
                for seed in range(3)]
            batch = kernel.evaluate_batch(
                np.stack([m.block_to_slot for m in mappings]))
            for mapping, row in zip(mappings, batch):
                ref = pipette_latency(model, config, mapping, bw, profile) \
                    if options is None else latency_with_options(
                        model, config, mapping, bw, profile, options)
                assert kernel.evaluate_perm(mapping.block_to_slot) == ref
                assert row == ref


@st.composite
def differential_cases(draw):
    """A random cluster shape, grid, bandwidth matrix and model options.

    Nodes of 2, 4 or 8 GPUs, 2-6 of them, every ``tp`` dividing the
    node (1-8 slots per node) and every ``(pp, dp)`` factorization of
    the block count.  The matrix is asymmetric, its entries drawn from
    a set of one to three values so that ties are common; its diagonal
    is +inf or drawn from the same set.
    """
    gpus_per_node = draw(st.sampled_from([2, 4, 8]))
    n_nodes = draw(st.integers(min_value=2, max_value=6))
    tp = draw(st.sampled_from([t for t in (1, 2, 4, 8)
                               if gpus_per_node % t == 0]))
    n_blocks = n_nodes * gpus_per_node // tp
    pp = draw(st.sampled_from([p for p in divisors(n_blocks) if p <= 24]))
    micro_batch = draw(st.sampled_from([1, 2]))
    config = ParallelConfig(
        pp=pp, tp=tp, dp=n_blocks // pp, micro_batch=micro_batch,
        global_batch=micro_batch * (n_blocks // pp) * 2 * pp,
        recompute=draw(st.booleans()),
        schedule=draw(st.sampled_from(registered_schedules())))
    values = draw(st.lists(st.sampled_from([1.5, 12.5, 25.0, 100.0, 300.0]),
                           min_size=1, max_size=3, unique=True))
    return (gpus_per_node, n_nodes, config, values, draw(st.booleans()),
            draw(st.sampled_from(OPTION_DRAWS)),
            draw(st.integers(min_value=0, max_value=2**32 - 1)), [])


def _single_hop_case(gpus_per_node, n_nodes, tp, recompute, schedule,
                     options, seed):
    """A ``pp == 2`` case — every pipeline chain is one hop — with a
    finite diagonal and an asymmetric three-valued matrix."""
    dp = n_nodes * gpus_per_node // tp // 2
    config = ParallelConfig(pp=2, tp=tp, dp=dp, micro_batch=2,
                            global_batch=2 * dp * 2 * 2, recompute=recompute,
                            schedule=schedule)
    return (gpus_per_node, n_nodes, config, [1.5, 25.0, 300.0], True,
            options, seed, [])


def _two_slot_case(stages, finite_diag=False, options=OPTION_DRAWS[2],
                   seed=0):
    """Two slots per node — four 4-GPU nodes at ``tp == 2``, so node
    ``v`` holds slots ``2v`` and ``2v + 1`` — scored on the permutation
    whose stage rows are ``stages`` (slots in data-rank order), before
    the drawn ones.  Every stage is a ring stage under the default
    exposure-aware options."""
    pp, dp = len(stages), len(stages[0])
    config = ParallelConfig(pp=pp, tp=2, dp=dp, micro_batch=2,
                            global_batch=2 * dp * 2 * pp)
    return (4, 4, config, [1.5, 12.5, 25.0, 100.0, 300.0], finite_diag,
            options, seed, [sum(stages, [])])


#: Twenty-four distinct bandwidths, so that a leader submatrix's minimum
#: tells which leaders, and which direction of each pair, were read.
SPREAD = [1.5 * 1.25 ** i for i in range(24)]


def _pp1_case(gpus_per_node, n_nodes, tp, seed, finite_diag=True):
    """A ``pp == 1`` case — one ring row holding every slot — on an
    asymmetric matrix of :data:`SPREAD` values, scored on two stage rows
    before the drawn ones: round-robin over the nodes with each node's
    highest slot first (so it leads), and the slots in order."""
    dp = n_nodes * gpus_per_node // tp
    spn = gpus_per_node // tp
    config = ParallelConfig(pp=1, tp=tp, dp=dp, micro_batch=2,
                            global_batch=2 * dp * 2)
    interleaved = [v * spn + spn - 1 - i for i in range(spn)
                   for v in range(n_nodes)]
    return (gpus_per_node, n_nodes, config, SPREAD, finite_diag,
            OPTION_DRAWS[2], seed, [interleaved, list(range(dp))])


def _whole_node_case(seed):
    """One slot per node — six 2-GPU nodes at ``tp == 2`` — in three
    ring stages of two data ranks, on a five-valued matrix."""
    config = ParallelConfig(pp=3, tp=2, dp=2, micro_batch=2,
                            global_batch=2 * 2 * 2 * 3)
    return (2, 6, config, [1.5, 12.5, 25.0, 100.0, 300.0], False,
            OPTION_DRAWS[2], seed, [])


class TestDifferential:
    """Every evaluation path equals the reference, bit for bit."""

    @given(differential_cases())
    @settings(max_examples=120, deadline=None)
    # Single-hop chains: whole-node slots, two-slot nodes and four-slot
    # nodes, so the ``pp == 2`` hop table is read on every ring layout,
    # and one data rank (no ring at all).
    @example(_single_hop_case(8, 6, 8, True, "1f1b", OPTION_DRAWS[2], 3))
    @example(_single_hop_case(4, 6, 4, False, "gpipe", OPTION_DRAWS[3], 8))
    @example(_single_hop_case(8, 4, 4, True, "1f1b", OPTION_DRAWS[1], 5))
    @example(_single_hop_case(4, 3, 2, False, "interleaved_1f1b",
                              OPTION_DRAWS[4], 21))
    @example(_single_hop_case(4, 4, 1, False, "1f1b", OPTION_DRAWS[2], 17))
    @example(_single_hop_case(2, 2, 2, True, "1f1b", OPTION_DRAWS[0], 4))
    # Two-slot follower layouts.  A follower is a data rank whose
    # partner slot sits earlier in its own stage: adjacent partners; a
    # partner one block earlier but across the stage boundary (not a
    # follower — on this matrix a kernel that took it for one scores a
    # different stage-1 term that the drain slack does not hide);
    # every node doubled, with followers after a gap; no node doubled;
    # one ring stage (pp == 1); a finite diagonal.
    @example(_two_slot_case([[0, 1, 2, 4], [3, 5, 6, 7]], seed=1))
    @example(_two_slot_case([[0, 1, 4, 2], [3, 6, 7, 5]], seed=4))
    @example(_two_slot_case([[0, 2, 1, 3], [6, 4, 7, 5]], seed=3))
    @example(_two_slot_case([[6, 4, 2, 0], [1, 7, 3, 5]], seed=4))
    @example(_two_slot_case([[0, 2, 1, 4, 6, 3, 5, 7]], seed=5))
    @example(_two_slot_case([[3, 2, 5, 4], [0, 7, 1, 6]], finite_diag=True,
                            seed=6))
    # Whole-node ring stages whose terms all differ, so that a stage
    # read in place of another shows.
    @example(_whole_node_case(1))
    # pp == 1 on nodes of several slots, whose ring reads each node's
    # leading slot: one node (no inter phase), then two and six nodes
    # of 2, 4 and 8 slots, and one +inf diagonal.
    @example(_pp1_case(8, 1, 2, seed=7))
    @example(_pp1_case(8, 2, 4, seed=8))
    @example(_pp1_case(8, 2, 2, seed=9))
    @example(_pp1_case(8, 2, 1, seed=10))
    @example(_pp1_case(4, 6, 2, seed=11))
    @example(_pp1_case(8, 6, 2, seed=12))
    @example(_pp1_case(8, 6, 1, seed=13))
    @example(_pp1_case(8, 6, 1, seed=14, finite_diag=False))
    def test_all_paths_match_reference(self, case):
        from repro.cluster.topology import (
            ClusterSpec,
            GpuSpec,
            LinkSpec,
            NodeSpec,
        )
        from repro.units import GIB

        gpus_per_node, n_nodes, config, values, finite_diag, options, \
            seed, layouts = case
        node = NodeSpec(gpus_per_node=gpus_per_node,
                        gpu=GpuSpec("G", memory_bytes=4 * GIB,
                                    peak_flops=10e12),
                        intra_link=LinkSpec("L", 100.0))
        cluster = ClusterSpec(name="prop", n_nodes=n_nodes, node=node,
                              inter_link=LinkSpec("I", 10.0))
        rng = np.random.default_rng(seed)
        matrix = rng.choice(values, size=(cluster.n_gpus, cluster.n_gpus))
        if not finite_diag:
            np.fill_diagonal(matrix, np.inf)
        bw = BandwidthMatrix(matrix, np.zeros_like(matrix))
        model = get_model("gpt-1.1b")
        profile = profile_compute(model, cluster, seed=seed % 7)
        kernel = LatencyKernel(model, config, cluster, bw, profile, options)
        grid = kernel.grid

        perms = np.stack([np.asarray(p) for p in layouts]
                         + [rng.permutation(grid.n_blocks) for _ in range(3)])
        # One small move off the bound permutation, so the evaluator
        # recomputes only some of its components.
        moved = perms[0].copy()
        i, j = rng.choice(grid.n_blocks, size=2, replace=False)
        moved[[i, j]] = moved[[j, i]]
        perms = np.vstack([perms, moved])
        batch = kernel.evaluate_batch(perms)
        inc = IncrementalEvaluator(kernel)
        inc.bind(perms[0])
        ring_stages = range(kernel._n_dp_stages) if grid.dp > 1 else ()
        for perm, row in zip(perms, batch):
            mapping = Mapping(grid, cluster, perm)
            ref = latency_with_options(model, config, mapping, bw,
                                       profile, options)
            assert kernel.evaluate_perm(perm) == ref
            assert row == ref
            assert inc.propose(perm) == ref
            # Each stage's ring term on its own, so that the drain
            # slack cannot hide a wrong later-stage term: all stages at
            # once, each stage alone, and the evaluator's partials
            # (recomputed for the touched stages, kept for the rest).
            stage_ref = [_stage_dp_time(model, config, mapping, bw, s)
                         for s in ring_stages]
            if stage_ref:
                assert kernel._stage_terms(
                    perm, kernel._stages).tolist() == stage_ref
                for s in ring_stages:
                    assert kernel._stage_terms(
                        perm, np.array([s])).tolist() == [stage_ref[s]]
                assert inc._cand[2].tolist() == stage_ref


class TestKernelValidation:
    def test_rejects_wrong_gpu_count(self, world):
        cluster, model, bw, profile = world
        config = ParallelConfig(pp=2, tp=2, dp=2, micro_batch=1,
                                global_batch=8)
        with pytest.raises(ValueError, match="workers"):
            LatencyKernel(model, config, cluster, bw, profile)

    def test_rejects_straddling_tp(self, world):
        cluster, model, bw, profile = world
        # tp=8 > gpus_per_node=4 cannot be built: WorkerGrid is fine but
        # the slot geometry is not.
        config = ParallelConfig(pp=1, tp=8, dp=2, micro_batch=1,
                                global_batch=8)
        with pytest.raises(ValueError, match="straddle"):
            LatencyKernel(model, config, cluster, bw, profile)

    def test_rejects_mismatched_bandwidth(self, world):
        cluster, model, bw, profile = world
        small = bw.restrict(range(8))
        with pytest.raises(ValueError, match="bandwidth"):
            LatencyKernel(model, _config(2, 2, 4), cluster, small, profile)

    def test_rejects_negative_bandwidth(self, world):
        """The min-first terms assume bandwidth never goes negative."""
        cluster, model, bw, profile = world
        matrix = bw.matrix.copy()
        matrix[0, 5] = -1.0
        with pytest.raises(ValueError, match="zero or negative"):
            LatencyKernel(model, _config(2, 2, 4), cluster,
                          BandwidthMatrix(matrix, bw.alpha), profile)

    def test_nan_bandwidth_is_refused_alike_by_kernel_and_reference(
            self, world):
        """A failed measurement (NaN) has one semantics: refusal.

        Scored, the reference's Python min/max and the kernel's NumPy
        reductions disagreed on about half of a probe's mappings.  The
        matrix itself may still hold NaN (drift detection reads it).
        """
        cluster, model, bw, profile = world
        for link in ((0, 5), (1, 0), (3, 12)):
            matrix = bw.matrix.copy()
            matrix[link] = np.nan
            poisoned = BandwidthMatrix(matrix, bw.alpha)
            for config in (_config(2, 2, 4), _config(4, 4, 1),
                           _config(1, 1, 16)):
                mapping = sequential_mapping(
                    WorkerGrid(config.pp, config.tp, config.dp), cluster)
                errors = []
                for build in (
                        lambda: LatencyKernel(model, config, cluster,
                                              poisoned, profile),
                        lambda: latency_with_options(
                            model, config, mapping, poisoned, profile,
                            LatencyModelOptions()),
                        lambda: pipette_latency(model, config, mapping,
                                                poisoned, profile)):
                    with pytest.raises(ValueError, match="NaN") as info:
                        build()
                    errors.append(str(info.value))
                assert len(set(errors)) == 1

    def test_dead_links_are_refused_alike_by_kernel_and_reference(self):
        """A zeroed or negative link has one semantics: refusal.

        Scored, a zeroed link got three answers on a 4-node mid-range
        copy: ``inf`` (or ``nan``) from the kernel, ``ZeroDivisionError``
        from the reference's pipeline and ring terms, and ``ValueError``
        inside a TP group; a negative link was a finite latency.
        """
        from repro.cluster import NetworkProfiler, make_fabric

        cluster = mid_range_cluster(4)
        model = get_model("gpt-small")
        profile = profile_compute(model, cluster, seed=0)
        bw = NetworkProfiler().profile(make_fabric(cluster, seed=0),
                                       seed=0).bandwidth
        links = {"zeroed intra-TP": ((0, 1), 0.0),
                 "zeroed inter-node": ((0, 8), 0.0),
                 "negative inter-node": ((0, 8), -1.0),
                 "negative intra-TP": ((9, 10), -5.0)}
        configs = [ParallelConfig(pp=pp, tp=tp, dp=dp, micro_batch=1,
                                  global_batch=8 * dp)
                   for pp, tp, dp in ((1, 8, 4), (2, 8, 2), (4, 8, 1),
                                      (2, 4, 4), (4, 2, 4))]
        for label, (link, value) in links.items():
            matrix = bw.matrix.copy()
            matrix[link] = matrix[link[::-1]] = value
            dead = BandwidthMatrix(matrix, bw.alpha)
            for config in configs:
                mapping = sequential_mapping(
                    WorkerGrid(config.pp, config.tp, config.dp), cluster)
                errors = set()
                for build in (
                        lambda: LatencyKernel(model, config, cluster, dead,
                                              profile),
                        lambda: latency_with_options(
                            model, config, mapping, dead, profile,
                            LatencyModelOptions()),
                        lambda: pipette_latency(model, config, mapping, dead,
                                                profile)):
                    with pytest.raises(ValueError,
                                       match="zero or negative") as info:
                        build()
                    errors.add(str(info.value))
                assert len(errors) == 1, (label, config.describe())

    def test_profiled_presets_carry_no_nan(self):
        """What the planners are handed today never trips the refusal."""
        from repro.cluster import NetworkProfiler, make_fabric

        for preset in (mid_range_cluster, high_end_cluster):
            cluster = preset(4)
            for seed in range(3):
                bw = NetworkProfiler().profile(
                    make_fabric(cluster, seed=seed), seed=seed).bandwidth
                assert not np.isnan(bw.matrix).any()
                assert not np.isnan(bw.restrict(range(8)).matrix).any()

    def test_rejects_foreign_grid_mapping(self, world):
        cluster, model, bw, profile = world
        kernel = LatencyKernel(model, _config(2, 2, 4), cluster, bw, profile)
        other = sequential_mapping(WorkerGrid(4, 2, 2), cluster)
        with pytest.raises(ValueError, match="grid"):
            kernel(other)


class TestSeedIdentity:
    """Old and new annealers, same seed → same trajectory and answer."""

    @pytest.mark.parametrize("shape", [(4, 4, 1), (2, 2, 4), (4, 1, 4)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_kernel_annealer_replays_reference(self, world, shape, seed):
        cluster, model, bw, profile = world
        pp, tp, dp = shape
        config = _config(pp, tp, dp)
        initial = sequential_mapping(WorkerGrid(pp, tp, dp), cluster)
        kernel = pipette_kernel(model, config, cluster, bw, profile)

        def objective(m):
            return pipette_latency(model, config, m, bw, profile)

        options = SAOptions(max_iterations=600, seed=seed)
        ref = anneal_mapping_reference(initial, objective, options)
        fast = anneal_mapping(initial, kernel, options)
        assert fast.value == ref.value
        assert fast.mapping == ref.mapping
        assert fast.initial_value == ref.initial_value
        assert fast.iterations == ref.iterations
        assert fast.accepted == ref.accepted
        assert fast.history == ref.history

    def test_generic_objective_replays_reference(self, world):
        """The Mapping-callable slow path is also trajectory-identical."""
        cluster, model, bw, profile = world
        config = _config(2, 4, 2)
        initial = sequential_mapping(WorkerGrid(2, 4, 2), cluster)

        def objective(m):
            return pipette_latency(model, config, m, bw, profile)

        options = SAOptions(max_iterations=400, seed=3)
        ref = anneal_mapping_reference(initial, objective, options)
        slow = anneal_mapping(initial, objective, options)
        assert slow.value == ref.value
        assert slow.mapping == ref.mapping
        assert slow.accepted == ref.accepted
        assert slow.history == ref.history

    def test_explicit_temperature_also_identical(self, world):
        cluster, model, bw, profile = world
        config = _config(4, 2, 2)
        initial = sequential_mapping(WorkerGrid(4, 2, 2), cluster)
        kernel = pipette_kernel(model, config, cluster, bw, profile)
        options = SAOptions(max_iterations=300, seed=1,
                            initial_temperature=1e-3)
        ref = anneal_mapping_reference(
            initial, lambda m: pipette_latency(model, config, m, bw, profile),
            options)
        fast = anneal_mapping(initial, kernel, options)
        assert fast.value == ref.value
        assert fast.mapping == ref.mapping

    def test_kernel_annealer_improves_or_matches_start(self, world):
        cluster, model, bw, profile = world
        config = _config(4, 4, 1)
        initial = sequential_mapping(WorkerGrid(4, 4, 1), cluster)
        kernel = pipette_kernel(model, config, cluster, bw, profile)
        result = anneal_mapping(initial, kernel,
                                SAOptions(max_iterations=800, seed=0))
        assert result.value <= result.initial_value
        assert result.mapping.block_to_slot.shape == (4,)
