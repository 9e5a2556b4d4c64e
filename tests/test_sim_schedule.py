"""Pipeline schedules: the instruction layer and its registry."""

import pytest

from repro.sim.schedule import (
    BACKWARD,
    FORWARD,
    BackwardPass,
    Dependency,
    ForwardPass,
    GPipeSchedule,
    Instruction,
    Interleaved1F1BSchedule,
    OneFOneBSchedule,
    RecvActivation,
    RecvGrad,
    SendActivation,
    SendGrad,
    build_schedule,
    max_in_flight,
    pipeline_critical_time,
    registered_schedules,
    schedule_type,
)


def op_counts(steps):
    fwd = sum(1 for o in steps if isinstance(o, ForwardPass))
    bwd = sum(1 for o in steps if isinstance(o, BackwardPass))
    return fwd, bwd


def kinds(steps):
    return [FORWARD if isinstance(o, ForwardPass) else BACKWARD
            for o in steps]


class TestInstruction:
    def test_rejects_negative_stage(self):
        with pytest.raises(ValueError):
            ForwardPass(-1, 0, 0)

    def test_rejects_negative_microbatch(self):
        with pytest.raises(ValueError):
            BackwardPass(0, -1, 0)

    def test_rejects_negative_virtual_stage(self):
        with pytest.raises(ValueError):
            Instruction(0, 0, -1)

    def test_frozen_and_hashable(self):
        a = ForwardPass(1, 2, 1)
        assert a == ForwardPass(1, 2, 1)
        assert a != BackwardPass(1, 2, 1)
        assert len({a, ForwardPass(1, 2, 1)}) == 1


class TestOneFOneB:
    @pytest.mark.parametrize("pp,n_mb", [(1, 1), (2, 4), (4, 8), (4, 2), (8, 3)])
    def test_each_stage_runs_every_microbatch(self, pp, n_mb):
        sched = OneFOneBSchedule(pp, n_mb)
        for s in range(pp):
            assert op_counts(sched.compute_steps(s)) == (n_mb, n_mb)

    def test_warmup_depth(self):
        sched = OneFOneBSchedule(4, 8)
        # Stage 0 warms up with pp-1 forwards, then enters the steady
        # 1F1B rhythm: one more forward, then its first backward.
        assert kinds(sched.compute_steps(0)[:5]) == \
            [FORWARD, FORWARD, FORWARD, FORWARD, BACKWARD]

    def test_last_stage_alternates_immediately(self):
        sched = OneFOneBSchedule(4, 4)
        assert kinds(sched.compute_steps(3)[:4]) == \
            [FORWARD, BACKWARD, FORWARD, BACKWARD]

    def test_backward_follows_own_forward(self):
        # On every stage, B(m) must appear after F(m).
        for pp, n_mb in [(2, 4), (4, 8), (3, 5)]:
            sched = OneFOneBSchedule(pp, n_mb)
            for s in range(pp):
                steps = sched.compute_steps(s)
                f_pos = {o.microbatch: i for i, o in enumerate(steps)
                         if isinstance(o, ForwardPass)}
                for i, o in enumerate(steps):
                    if isinstance(o, BackwardPass):
                        assert f_pos[o.microbatch] < i

    def test_microbatch_order_is_fifo(self):
        sched = OneFOneBSchedule(4, 8)
        for s in range(4):
            steps = sched.compute_steps(s)
            fwd = [o.microbatch for o in steps if isinstance(o, ForwardPass)]
            bwd = [o.microbatch for o in steps if isinstance(o, BackwardPass)]
            assert fwd == sorted(fwd)
            assert bwd == sorted(bwd)

    def test_in_flight_bounded_by_pp_minus_stage(self):
        # The memory-efficient property (Fig. 2b): stage s never holds
        # more than pp - s live activations.
        pp, n_mb = 4, 16
        sched = OneFOneBSchedule(pp, n_mb)
        for s in range(pp):
            assert max_in_flight(sched, s) == min(pp - s, n_mb)

    def test_fewer_microbatches_than_stages(self):
        sched = OneFOneBSchedule(8, 2)
        for s in range(8):
            assert op_counts(sched.compute_steps(s)) == (2, 2)

    def test_virtual_stage_equals_stage(self):
        sched = OneFOneBSchedule(4, 4)
        for s in range(4):
            assert all(o.virtual_stage == s for o in sched.compute_steps(s))


class TestGpipe:
    def test_all_forwards_first(self):
        sched = GPipeSchedule(2, 4)
        for s in range(2):
            assert kinds(sched.compute_steps(s)) == \
                [FORWARD] * 4 + [BACKWARD] * 4

    def test_in_flight_is_all_microbatches(self):
        # The memory-unaware property (Fig. 2a).
        sched = GPipeSchedule(4, 6)
        for s in range(4):
            assert max_in_flight(sched, s) == 6


class TestInterleaved:
    def test_degree_and_virtual_stages(self):
        sched = Interleaved1F1BSchedule(4, 8)
        assert sched.degree == 2
        assert sched.n_virtual_stages == 8
        assert sched.local_chunks(1) == [1, 5]
        assert sched.device_of(5) == 1

    @pytest.mark.parametrize("pp,n_mb", [(2, 4), (4, 8), (4, 4)])
    def test_each_chunk_runs_every_microbatch(self, pp, n_mb):
        sched = Interleaved1F1BSchedule(pp, n_mb)
        for s in range(pp):
            steps = sched.compute_steps(s)
            assert op_counts(steps) == (n_mb * 2, n_mb * 2)
            for vs in sched.local_chunks(s):
                fwd = {o.microbatch for o in steps
                       if isinstance(o, ForwardPass) and o.virtual_stage == vs}
                bwd = {o.microbatch for o in steps
                       if isinstance(o, BackwardPass) and o.virtual_stage == vs}
                assert fwd == bwd == set(range(n_mb))

    def test_forwards_advance_in_groups_of_pp(self):
        # Megatron ordering: pp microbatches through the shallow chunk,
        # then the same pp through the deep chunk.
        sched = Interleaved1F1BSchedule(2, 4)
        steps = [o for o in sched.compute_steps(0)
                 if isinstance(o, ForwardPass)]
        slots = [(o.virtual_stage, o.microbatch) for o in steps[:4]]
        assert slots == [(0, 0), (0, 1), (2, 0), (2, 1)]

    def test_backwards_drain_deepest_chunk_first(self):
        sched = Interleaved1F1BSchedule(2, 4)
        steps = [o for o in sched.compute_steps(0)
                 if isinstance(o, BackwardPass)]
        slots = [(o.virtual_stage, o.microbatch) for o in steps[:4]]
        assert slots == [(2, 0), (2, 1), (0, 0), (0, 1)]

    def test_infeasible_shapes_rejected(self):
        ok, why = Interleaved1F1BSchedule.feasible(1, 4)
        assert not ok and "pp >= 2" in why
        ok, why = Interleaved1F1BSchedule.feasible(4, 6)
        assert not ok and "multiple" in why
        ok, why = Interleaved1F1BSchedule.feasible(4, 8, n_layers=4)
        assert not ok and "layers" in why
        with pytest.raises(ValueError):
            Interleaved1F1BSchedule(4, 6)

    def test_holds_more_than_flat_1f1b(self):
        pp, n_mb = 4, 8
        inter = Interleaved1F1BSchedule(pp, n_mb)
        flat = OneFOneBSchedule(pp, n_mb)
        for s in range(pp):
            # Compare in device-stage equivalents: peak chunks / degree.
            assert inter.peak_activation_chunks(s) / inter.degree \
                > flat.peak_activation_chunks(s)


class TestStepsFraming:
    def test_1f1b_interior_stage_framed_with_transfers(self):
        sched = OneFOneBSchedule(4, 4)
        steps = sched.steps(1)
        # Every forward on an interior stage receives from upstream and
        # sends downstream; every backward receives grad and sends grad.
        fwd = [i for i, o in enumerate(steps) if isinstance(o, ForwardPass)]
        for i in fwd:
            assert isinstance(steps[i - 1], RecvActivation)
            assert steps[i - 1].peer == 0
            assert isinstance(steps[i + 1], SendActivation)
            assert steps[i + 1].peer == 2
        bwd = [i for i, o in enumerate(steps) if isinstance(o, BackwardPass)]
        for i in bwd:
            assert isinstance(steps[i - 1], RecvGrad)
            assert isinstance(steps[i + 1], SendGrad)

    def test_first_stage_never_receives_activations(self):
        sched = OneFOneBSchedule(4, 4)
        assert not any(isinstance(o, RecvActivation) for o in sched.steps(0))

    def test_last_stage_never_sends_activations(self):
        sched = OneFOneBSchedule(4, 4)
        assert not any(isinstance(o, SendActivation) for o in sched.steps(3))

    def test_single_stage_has_no_comm(self):
        sched = OneFOneBSchedule(1, 4)
        assert kinds(sched.steps(0)) == kinds(sched.compute_steps(0))


class TestDependencies:
    def test_first_forward_has_none(self):
        sched = OneFOneBSchedule(4, 4)
        assert sched.dependencies(ForwardPass(0, 0, 0)) == ()

    def test_interior_forward_waits_on_upstream(self):
        sched = OneFOneBSchedule(4, 4)
        deps = sched.dependencies(ForwardPass(2, 1, 2))
        assert deps == (Dependency(FORWARD, 1, 1, transfer_from=1),)

    def test_backward_waits_on_downstream_and_own_forward(self):
        sched = OneFOneBSchedule(4, 4)
        deps = sched.dependencies(BackwardPass(1, 0, 1))
        assert Dependency(BACKWARD, 2, 0, transfer_from=2) in deps
        assert Dependency(FORWARD, 1, 0) in deps

    def test_interleaved_cross_device_boundary_flagged(self):
        # With pp=2, degree=2: chunk 1 lives on device 1, chunk 2 on
        # device 0; the 1->2 boundary crosses devices so the forward of
        # chunk 2 on device 0 waits on a transfer from device 1.
        sched = Interleaved1F1BSchedule(2, 2)
        deps = sched.dependencies(ForwardPass(0, 0, 2))
        assert deps == (Dependency(FORWARD, 1, 0, transfer_from=1),)

    def test_comm_instruction_rejected(self):
        sched = OneFOneBSchedule(2, 2)
        with pytest.raises(TypeError):
            sched.dependencies(SendActivation(0, 0, 0, peer=1))


class TestRegistry:
    def test_registered_names(self):
        assert registered_schedules() == ("1f1b", "gpipe", "interleaved_1f1b")

    def test_build_dispatch(self):
        assert isinstance(build_schedule("1f1b", 2, 2), OneFOneBSchedule)
        assert isinstance(build_schedule("gpipe", 2, 2), GPipeSchedule)
        assert isinstance(build_schedule("interleaved_1f1b", 2, 2),
                          Interleaved1F1BSchedule)

    def test_unknown_rejected_listing_names(self):
        with pytest.raises(ValueError, match="registered schedules"):
            build_schedule("interleaved", 2, 2)
        with pytest.raises(ValueError, match="'1f1b', 'gpipe'"):
            schedule_type("bogus")

    def test_gpipe_holds_more_than_1f1b(self):
        pp, n_mb = 4, 8
        eff = build_schedule("1f1b", pp, n_mb)
        una = build_schedule("gpipe", pp, n_mb)
        assert max_in_flight(una, 0) > max_in_flight(eff, 1)


class TestCriticalTime:
    def test_1f1b_matches_paper_formula(self):
        pp, n_mb, c, t = 4, 8, 0.01, 0.002
        expected = ((pp * c + t) * (n_mb / pp)) + (pp - 1) * c
        assert pipeline_critical_time("1f1b", pp, n_mb, c, t) == expected

    def test_gpipe_pays_bubble_once(self):
        pp, n_mb, c, t = 4, 8, 0.01, 0.002
        assert pipeline_critical_time("gpipe", pp, n_mb, c, t) == \
            (n_mb + pp - 1) * c + t

    def test_interleaved_shrinks_straggler_but_doubles_hops(self):
        pp, n_mb = 4, 8
        # Communication-free: interleaving halves the straggler bubble.
        assert pipeline_critical_time("interleaved_1f1b", pp, n_mb, 0.01, 0.0) \
            < pipeline_critical_time("1f1b", pp, n_mb, 0.01, 0.0)
        # Communication-dominated: the doubled hops lose.
        assert pipeline_critical_time("interleaved_1f1b", pp, n_mb, 0.0, 0.01) \
            > pipeline_critical_time("1f1b", pp, n_mb, 0.0, 0.01)


def _walk_peak(steps):
    live = peak = 0
    for inst in steps:
        live += isinstance(inst, ForwardPass) - isinstance(inst, BackwardPass)
        peak = max(peak, live)
    return peak


class TestPeakChunkMemo:
    """``peak_activation_chunks`` is memoized; the stream stays the truth."""

    @pytest.mark.parametrize("name", registered_schedules())
    def test_memo_equals_instruction_stream_count(self, name):
        checked = 0
        for pp in range(1, 9):
            for n_mb in range(1, 18):
                if not schedule_type(name).feasible(pp, n_mb)[0]:
                    continue
                sched = build_schedule(name, pp, n_mb)
                for stage in range(pp):
                    expected = _walk_peak(sched.steps(stage))
                    assert sched.peak_activation_chunks(stage) == expected
                    # A second, fresh instance reads the memo.
                    assert build_schedule(name, pp, n_mb) \
                        .peak_activation_chunks(stage) == expected
                    checked += 1
        assert checked > 0

    def test_warm_count_does_not_rebuild_the_stream(self, monkeypatch):
        from repro.sim.schedule import _peak_activation_chunks
        assert _peak_activation_chunks.cache_info().maxsize is not None
        sched = build_schedule("gpipe", 3, 5)
        warm = [sched.peak_activation_chunks(s) for s in range(3)]

        def no_rebuild(self, stage):
            raise AssertionError("stream rebuilt for a memoized shape")

        monkeypatch.setattr(GPipeSchedule, "compute_steps", no_rebuild)
        assert [build_schedule("gpipe", 3, 5).peak_activation_chunks(s)
                for s in range(3)] == warm == [5, 5, 5]
