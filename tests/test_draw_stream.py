"""The annealer's draw stream is NumPy's ``Generator``, draw for draw.

:class:`repro.utils.rng.DrawStream` serves ``integers``, ``random``
and the ``choice(n, 2, replace=False)`` pair from blocks of raw PCG64
output.  Every seeded plan rests on it reproducing the ``Generator``
stream exactly, so the property test below interleaves all three
kinds of draw over hundreds of seeds, including the Lemire bounds whose
rejection zone is large enough to be hit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import DrawStream

#: ``integers`` bounds: the no-draw ``k == 1``, a tiny one, and three
#: whose Lemire rejection zone is a sizable share of 2**32.
BOUNDS = (1, 2, 3, 2**31 + 12345, 3 * 2**30, 2**32 - 2)

#: ``pair`` populations: the smallest, a typical block count, a large one.
POPULATIONS = (2, 17, 5000)


def _script(seed: int, length: int) -> "list[tuple[str, int]]":
    """A seeded random interleaving of the three draw kinds."""
    ops = np.random.default_rng(1_000_000 + seed)
    script = []
    for _ in range(length):
        kind = int(ops.integers(3))
        if kind == 0:
            script.append(("integers", BOUNDS[int(ops.integers(len(BOUNDS)))]))
        elif kind == 1:
            script.append(("pair", POPULATIONS[int(ops.integers(3))]))
        else:
            script.append(("random", 0))
    return script


def _generator_draw(gen: np.random.Generator, kind: str, arg: int):
    if kind == "integers":
        return int(gen.integers(arg))
    if kind == "pair":
        return tuple(int(v) for v in gen.choice(arg, 2, replace=False))
    return gen.random()


def _stream_draw(stream: DrawStream, kind: str, arg: int):
    if kind == "integers":
        return stream.integers(arg)
    if kind == "pair":
        return stream.pair(arg)
    return stream.random()


class TestGeneratorIdentity:
    @pytest.mark.parametrize("block", [1, 256])
    def test_interleaved_draws_match_across_seeds(self, block):
        for seed in range(300):
            gen = np.random.default_rng(seed)
            stream = DrawStream(seed, block=block)
            for kind, arg in _script(seed, 60):
                assert _stream_draw(stream, kind, arg) \
                    == _generator_draw(gen, kind, arg), (seed, kind, arg)

    def test_states_agree_draw_by_draw_at_block_one(self):
        """With no prefetch the stream's generator *is* the Generator's."""
        for seed in range(40):
            gen = np.random.default_rng(seed)
            stream = DrawStream(seed, block=1)
            for kind, arg in _script(seed, 40):
                _stream_draw(stream, kind, arg)
                _generator_draw(gen, kind, arg)
                assert stream.state == gen.bit_generator.state

    def test_state_rewinds_prefetched_output(self):
        gen = np.random.default_rng(9)
        stream = DrawStream(9, block=64)
        for kind, arg in _script(9, 25):
            _stream_draw(stream, kind, arg)
            _generator_draw(gen, kind, arg)
        assert stream.state == gen.bit_generator.state

    def test_k_one_draws_nothing(self):
        gen = np.random.default_rng(3)
        stream = DrawStream(3, block=1)
        for _ in range(5):
            assert stream.integers(1) == 0 == int(gen.integers(1))
        assert stream.state == gen.bit_generator.state
        assert stream.random() == gen.random()

    def test_rejection_zone_is_exercised(self):
        """``3 * 2**30`` rejects a third of all 32-bit draws, so a few
        hundred draws must cross the redraw branch."""
        seed, k = 4, 3 * 2**30
        gen = np.random.default_rng(seed)
        stream = DrawStream(seed, block=1)
        for _ in range(300):
            assert stream.integers(k) == int(gen.integers(k))
        # Each draw consumes one 32-bit half; more than 300 halves
        # means some draws were rejected and redrawn.
        raw = gen.bit_generator.state["state"]["state"]
        fresh = np.random.PCG64(seed)
        fresh.advance(150)
        assert raw != fresh.state["state"]["state"]
        assert stream.state == gen.bit_generator.state


class TestValidation:
    @pytest.mark.parametrize("seed", [True, 1.0, "1", None])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(TypeError):
            DrawStream(seed)

    def test_numpy_int_seed(self):
        assert DrawStream(np.int64(5)).random() \
            == np.random.default_rng(5).random()

    @pytest.mark.parametrize("k", [0, -1, 2**32, 2**40])
    def test_integers_bound_range(self, k):
        with pytest.raises(ValueError):
            DrawStream(0).integers(k)

    @pytest.mark.parametrize("n", [0, 1, 2**32])
    def test_pair_population_range(self, n):
        with pytest.raises(ValueError):
            DrawStream(0).pair(n)

    def test_block_must_be_positive(self):
        with pytest.raises(ValueError):
            DrawStream(0, block=0)
