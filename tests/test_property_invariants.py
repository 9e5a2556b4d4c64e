"""Property-based tests (hypothesis) on core data structures and laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealing_oracle import propose
from repro.model import TransformerConfig
from repro.model.memory import (
    one_f_one_b_in_flight,
    stage_layer_count,
    stage_parameter_count,
)
from repro.parallel import ParallelConfig, enumerate_parallel_configs
from repro.parallel.collectives import ring_allreduce_time
from repro.sim.schedule import (
    BackwardPass,
    ForwardPass,
    GPipeSchedule,
    Interleaved1F1BSchedule,
    OneFOneBSchedule,
    max_in_flight,
)
from repro.utils.rng import resolve_rng
from repro.utils.validation import divisors


@st.composite
def way_splits(draw):
    """A (pp, n_mb) pair with sane pipeline shapes."""
    pp = draw(st.integers(min_value=1, max_value=12))
    n_mb = draw(st.integers(min_value=1, max_value=24))
    return pp, n_mb


class TestDivisorsProperties:
    @given(st.integers(min_value=1, max_value=10_000))
    def test_divisors_divide_and_are_complete(self, n):
        ds = divisors(n)
        assert all(n % d == 0 for d in ds)
        assert ds == sorted(set(ds))
        brute = [d for d in range(1, n + 1) if n % d == 0]
        assert ds == brute if n <= 300 else ds[0] == 1 and ds[-1] == n


class TestScheduleProperties:
    @given(way_splits())
    @settings(max_examples=60)
    def test_1f1b_is_complete_and_causal(self, shape):
        pp, n_mb = shape
        sched = OneFOneBSchedule(pp, n_mb)
        for s in range(pp):
            steps = sched.compute_steps(s)
            fwd = [o.microbatch for o in steps if isinstance(o, ForwardPass)]
            bwd = [o.microbatch for o in steps if isinstance(o, BackwardPass)]
            assert fwd == list(range(n_mb))
            assert bwd == list(range(n_mb))
            # causality: B(m) after F(m)
            pos_f = {o.microbatch: i for i, o in enumerate(steps)
                     if isinstance(o, ForwardPass)}
            for i, o in enumerate(steps):
                if isinstance(o, BackwardPass):
                    assert i > pos_f[o.microbatch]

    @given(way_splits())
    @settings(max_examples=60)
    def test_1f1b_memory_bound(self, shape):
        pp, n_mb = shape
        sched = OneFOneBSchedule(pp, n_mb)
        for s in range(pp):
            assert max_in_flight(sched, s) \
                == min(pp - s, n_mb) == one_f_one_b_in_flight(pp, s, n_mb)

    @given(way_splits())
    @settings(max_examples=40)
    def test_gpipe_holds_everything(self, shape):
        pp, n_mb = shape
        sched = GPipeSchedule(pp, n_mb)
        assert all(max_in_flight(sched, s) == n_mb for s in range(pp))

    @given(way_splits())
    @settings(max_examples=40)
    def test_interleaved_is_complete_and_causal(self, shape):
        pp, n_mb = shape
        ok, _ = Interleaved1F1BSchedule.feasible(pp, n_mb)
        if not ok:
            return
        sched = Interleaved1F1BSchedule(pp, n_mb)
        for s in range(pp):
            steps = sched.compute_steps(s)
            # Every local chunk sees every microbatch once each way.
            for vs in sched.local_chunks(s):
                fwd = [o.microbatch for o in steps
                       if isinstance(o, ForwardPass) and o.virtual_stage == vs]
                bwd = [o.microbatch for o in steps
                       if isinstance(o, BackwardPass) and o.virtual_stage == vs]
                assert sorted(fwd) == list(range(n_mb))
                assert sorted(bwd) == list(range(n_mb))
            # causality per (chunk, microbatch): B after F
            pos_f = {(o.virtual_stage, o.microbatch): i
                     for i, o in enumerate(steps)
                     if isinstance(o, ForwardPass)}
            for i, o in enumerate(steps):
                if isinstance(o, BackwardPass):
                    assert i > pos_f[(o.virtual_stage, o.microbatch)]


class TestLayerSplitProperties:
    @given(st.integers(min_value=1, max_value=200),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=80)
    def test_balanced_split(self, layers, pp):
        if pp > layers:
            with pytest.raises(ValueError):
                stage_layer_count(layers, pp, 0)
            return
        counts = [stage_layer_count(layers, pp, s) for s in range(pp)]
        assert sum(counts) == layers
        assert max(counts) - min(counts) <= 1
        assert counts == sorted(counts, reverse=True)


class TestParamSplitProperties:
    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=32, max_value=256).filter(lambda h: h % 8 == 0))
    @settings(max_examples=30)
    def test_stage_params_cover_model(self, pp, hidden):
        model = TransformerConfig("m", n_layers=8, hidden_size=hidden,
                                  n_heads=8, seq_length=16, vocab_size=128)
        total = sum(stage_parameter_count(model, pp, s) for s in range(pp))
        # pp > 1 duplicates the output embedding on the last stage.
        duplication = model.vocab_size * model.hidden_size if pp > 1 else 0
        assert total == model.param_count + duplication


class TestEnumerationProperties:
    @given(st.sampled_from([4, 8, 16, 32, 64]),
           st.sampled_from([8, 32, 64, 128, 256]))
    @settings(max_examples=40)
    def test_every_config_is_valid(self, n_gpus, global_batch):
        for c in enumerate_parallel_configs(n_gpus, global_batch):
            assert c.pp * c.tp * c.dp == n_gpus
            assert c.global_batch % c.dp == 0
            assert c.mini_batch % c.micro_batch == 0
            assert 1 <= c.micro_batch <= 8
            # Constructing it again must not raise.
            ParallelConfig(pp=c.pp, tp=c.tp, dp=c.dp,
                           micro_batch=c.micro_batch,
                           global_batch=c.global_batch)


class TestCollectiveProperties:
    @given(st.floats(min_value=1.0, max_value=1e10),
           st.integers(min_value=1, max_value=64),
           st.floats(min_value=0.1, max_value=1000.0))
    @settings(max_examples=60)
    def test_ring_allreduce_bounds(self, msg, peers, bw):
        t = ring_allreduce_time(msg, peers, bw)
        assert t >= 0.0
        # Never more than 2x the full message time over the link.
        assert t <= 2.0 * msg / (bw * 1e9) + 1e-12

    @given(st.integers(min_value=2, max_value=64))
    @settings(max_examples=30)
    def test_ring_monotone_in_peers(self, peers):
        a = ring_allreduce_time(1e9, peers, 10.0)
        b = ring_allreduce_time(1e9, peers + 1, 10.0)
        assert b >= a


class TestMoveProperties:
    @given(st.integers(min_value=2, max_value=32),
           st.sampled_from(["migrate", "swap", "reverse"]),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=80)
    def test_moves_are_permutation_closed(self, n, move, seed):
        rng = resolve_rng(seed)
        perm = rng.permutation(n)
        out = propose(perm, move, rng)
        assert sorted(out.tolist()) == list(range(n))

    @given(st.integers(min_value=4, max_value=16),
           st.integers(min_value=0, max_value=200))
    @settings(max_examples=40)
    def test_reverse_is_involution_under_same_cut(self, n, seed):
        # Reversing the same substring twice restores the permutation.
        rng = resolve_rng(seed)
        perm = rng.permutation(n)
        i, j = sorted(resolve_rng(seed + 1).choice(n + 1, size=2,
                                                   replace=False))
        if j - i < 2:
            return
        once = perm.copy()
        once[i:j] = once[i:j][::-1]
        twice = once.copy()
        twice[i:j] = twice[i:j][::-1]
        assert np.array_equal(twice, perm)


class TestInFlightProperties:
    @given(st.integers(min_value=1, max_value=32),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=60)
    def test_in_flight_monotone_and_bounded(self, pp, n_mb):
        vals = [one_f_one_b_in_flight(pp, s, n_mb) for s in range(pp)]
        assert all(1 <= v <= min(pp, n_mb) for v in vals)
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] == 1 or vals[-1] == min(1, n_mb)
