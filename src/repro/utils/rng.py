"""Deterministic random-number plumbing.

Every stochastic component in the library accepts either an integer
seed or an already-constructed :class:`numpy.random.Generator`.  The
helpers here normalize between the two and derive statistically
independent child streams from named keys, so that e.g. the fabric
heterogeneity draw and the compute-jitter draw of one experiment never
alias even though both stem from one experiment-level seed.

The one exception is :class:`DrawStream`, the annealer's hot-loop
source of ``Generator``-identical draws: it takes an integer seed
only, because it owns and reads ahead of its generator.
"""

from __future__ import annotations

import zlib

import numpy as np

SeedLike = "int | np.random.Generator | np.random.SeedSequence | None"


def resolve_rng(seed: "SeedLike" = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` produces a default deterministic generator (seed 0) rather
    than an entropy-seeded one: experiments must be reproducible by
    default, and callers wanting true entropy can pass their own
    generator.
    """
    if seed is None:
        return np.random.default_rng(0)
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(f"cannot interpret {type(seed).__name__} as a seed")


class DrawStream:
    """NumPy ``Generator`` draws, served from blocks of raw PCG64 output.

    ``DrawStream(seed)`` yields exactly the values that
    ``np.random.default_rng(seed)`` yields for the same call sequence
    of :meth:`integers`, :meth:`random` and :meth:`pair`, at a fraction
    of the per-call cost: each call is a few Python integer operations
    on a prefetched list instead of a NumPy dispatch.  The stream
    reproduces NumPy's rules for its ``PCG64`` bit generator:

    * 32-bit draws split one 64-bit output, low half first, and keep
      the high half for the next 32-bit draw (64-bit draws never touch
      that buffer);
    * ``integers(k)`` is Lemire's multiply-and-reject on a 32-bit draw
      and draws nothing when ``k == 1``;
    * ``random()`` is ``(u64 >> 11) * 2**-53``;
    * :meth:`pair` is ``choice(n, 2, replace=False)``: Floyd's
      algorithm, then a one-step shuffle.

    The stream owns its generator, so prefetching ``block`` outputs at
    a time is invisible to everyone else.  Plans therefore depend only
    on PCG64's raw output and the rules above.
    """

    __slots__ = ("_bitgen", "_block", "_raw", "_pos", "_half", "_has_half")

    def __init__(self, seed: int, block: int = 256) -> None:
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise TypeError(
                f"seed must be an int, got {type(seed).__name__}")
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self._bitgen = np.random.PCG64(int(seed))
        self._block = block
        self._raw: "list[int]" = []
        self._pos = block        # empty: the first draw fetches a block
        self._half = 0           # high half of the last split output
        self._has_half = False   # ... and whether it is still unused

    def _next64(self) -> int:
        pos = self._pos
        if pos == self._block:
            self._raw = self._bitgen.random_raw(self._block).tolist()
            pos = 0
        self._pos = pos + 1
        return self._raw[pos]

    def integers(self, k: int) -> int:
        """``Generator.integers(k)``: uniform on ``[0, k)``, ``k < 2**32``."""
        if not 0 < k < 0x100000000:
            raise ValueError(f"k must lie in [1, 2**32), got {k}")
        return self._lemire(k) if k > 1 else 0

    def _lemire(self, k: int) -> int:
        """Lemire's bounded draw on ``[0, k)`` for ``1 < k < 2**32``."""
        while True:
            if self._has_half:
                self._has_half = False
                half = self._half
            else:
                raw = self._next64()
                self._half = raw >> 32
                self._has_half = True
                half = raw & 0xFFFFFFFF
            m = half * k
            # Reject the low words below (2**32 - k) % k; the cheap
            # ``< k`` pre-test spares the modulo almost always.
            low = m & 0xFFFFFFFF
            if low >= k or low >= (0x100000000 - k) % k:
                return m >> 32

    def random(self) -> float:
        """``Generator.random()``: a double on ``[0, 1)``."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def pair(self, n: int) -> "tuple[int, int]":
        """``tuple(Generator.choice(n, 2, replace=False))``."""
        if not 1 < n < 0x100000000:
            raise ValueError(f"n must lie in [2, 2**32), got {n}")
        a = self._lemire(n - 1) if n > 2 else 0
        b = self._lemire(n)
        if b == a:
            b = n - 1
        return (b, a) if self._lemire(2) == 0 else (a, b)

    @property
    def state(self) -> dict:
        """The bit-generator state of a ``Generator`` after the same draws.

        Prefetched but unconsumed outputs are rewound, so this equals
        ``np.random.default_rng(seed).bit_generator.state`` after the
        same call sequence at any ``block``.
        """
        bitgen = np.random.PCG64()
        bitgen.state = self._bitgen.state
        bitgen.advance(-(self._block - self._pos))
        state = bitgen.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half
        return state


def derive_seed(base_seed: int, key: str) -> int:
    """Derive a child seed from ``base_seed`` and a string ``key``.

    The derivation is a stable hash (crc32) of the key mixed into the
    base seed, so the same (seed, key) pair yields the same stream on
    every platform and Python version.
    """
    if not isinstance(base_seed, (int, np.integer)):
        raise TypeError(f"base_seed must be an int, got {type(base_seed).__name__}")
    mixed = (int(base_seed) * 0x9E3779B1 + zlib.crc32(key.encode("utf-8"))) % (2**63)
    return int(mixed)


def spawn_rng(seed: "SeedLike", key: str) -> np.random.Generator:
    """Return an independent generator derived from ``seed`` and ``key``.

    When ``seed`` is already a generator, a child is spawned from it
    (consuming state); when it is an integer the child is derived
    deterministically without consuming anything, so sibling streams
    built from the same integer seed are order-independent.
    """
    if isinstance(seed, np.random.Generator):
        return seed.spawn(1)[0]
    if seed is None:
        seed = 0
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed.spawn(1)[0])
    return np.random.default_rng(derive_seed(int(seed), key))
