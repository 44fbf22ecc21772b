"""Deterministic random-number streams.

Experiments must be exactly reproducible: the same seed must yield the
same event order, the same lock choices, and therefore the same measured
numbers.  We derive one independent :class:`Draws` stream per named
consumer (per thread, per workload component) from a root seed via
``SeedSequence.spawn``-style key hashing, so adding a new consumer never
perturbs the streams of existing ones.

A :class:`Draws` is numpy's ``default_rng(seed)`` stream — its
``SeedSequence`` seeding, its PCG64 bit generator and the scalar rules
the simulator uses — in pure Python, so a run that only simulates never
imports numpy.
"""

from __future__ import annotations

import hashlib
import sys

from repro.common.errors import ConfigError

#: key-part types whose ``repr`` is stable across processes and Python
#: versions.  Anything else (objects, lists, dicts, numpy arrays) may
#: embed memory addresses or version-dependent formatting in its repr,
#: which would silently break cross-process seed stability.
_PRIMITIVE_TYPES = (bool, int, float, str, bytes, type(None))


def _normalize_part(part: object, *, _path: str = "key part") -> object:
    """Validate one seed-key part, returning a canonical primitive form.

    numpy scalars are converted to their Python equivalents first: their
    reprs changed between numpy 1.x (``3``) and 2.x (``np.int64(3)``),
    so hashing them raw would tie seeds to the numpy version.  No numpy
    scalar exists before numpy is loaded, so numpy is looked up, never
    imported.
    """
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(part, np.integer):
            part = int(part)
        elif isinstance(part, np.floating):
            part = float(part)
        elif isinstance(part, np.str_):
            part = str(part)
    if isinstance(part, tuple):
        return tuple(_normalize_part(p, _path=f"{_path}[{i}]")
                     for i, p in enumerate(part))
    if isinstance(part, _PRIMITIVE_TYPES):
        return part
    raise ConfigError(
        f"derive_seed {_path} has non-primitive type "
        f"{type(part).__name__!r}: repr() of arbitrary objects can embed "
        f"memory addresses, breaking cross-process seed stability; use "
        f"ints, strs, bytes, floats, bools, None, or tuples of those")


def derive_seed(root_seed: int, *key: object) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a structured key.

    Uses BLAKE2b over the repr of the key parts; stable across processes
    and Python versions (unlike ``hash()``).  Key parts are restricted to
    primitives (int/str/bytes/float/bool/None, numpy scalars, and tuples
    of those) — :class:`~repro.common.errors.ConfigError` is raised for
    anything whose repr is not process-independent.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(root_seed)).encode())
    for i, part in enumerate(key):
        h.update(b"\x1f")
        h.update(repr(_normalize_part(part, _path=f"key part {i}")).encode())
    return int.from_bytes(h.digest(), "little")


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_TWO32 = 1 << 32
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
#: PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _seed_state(seed: int) -> tuple[int, int]:
    """``SeedSequence(seed).generate_state(4, uint64)``, as PCG64 takes
    it: the 128-bit initial state and stream selector."""
    if seed < 0:
        raise ConfigError(f"a stream seed must be >= 0, got {seed!r}")
    entropy = [0] if seed == 0 else []
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    # mix_entropy: fill the pool, then mix every word into every other
    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state: eight 32-bit words cycling the pool, read as four
    # little-endian 64-bit words
    words = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    u64 = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
    return u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]


class Draws:
    """One random stream: bit for bit ``np.random.default_rng(seed)``'s.

    ``below(n)``, ``random()`` and ``uniform(lo, hi)`` return exactly
    what a :class:`numpy.random.Generator` seeded the same way returns
    from scalar ``integers(0, n)``, ``random()`` and ``uniform(lo, hi)``
    calls made in the same order.  Each raw 64-bit output is one step of
    PCG64's 128-bit LCG and its XSL-RR output function, made when a draw
    needs it.

    Three numpy routines are mirrored (``numpy/random/src``):

    * ``next_double``: the top 53 bits of one raw output, times 2**-53
      (``random_uniform`` is ``lo + (hi - lo)`` times that);
    * PCG64's ``next_uint32``: a raw output yields its low half, and its
      high half is kept for the next 32-bit draw (``random()`` leaves
      that half buffered);
    * ``random_bounded_uint64_fill`` for a range below 2**32: ``n == 1``
      draws nothing; otherwise Lemire's bounded multiply over 32-bit
      draws, rejecting a draw whose low word is under
      ``(2**32 - n) % n``.

    ``tests/common/test_draws.py`` holds the stream to a ``Generator``'s
    for the seeding and every rule; it is the tripwire should numpy ever
    change them.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, initstate: int, initseq: int):
        """PCG64 seeded by ``pcg_setseq_128_srandom_r``."""
        self._inc = ((initseq << 1) | 1) & _MASK128
        self._state = ((self._inc + initstate) * _PCG_MULT
                       + self._inc) & _MASK128
        self._half = -1             # buffered high half; -1: none

    @classmethod
    def seeded(cls, seed: int) -> "Draws":
        """The stream of ``np.random.default_rng(seed)``; ``seed >= 0``."""
        return cls(*_seed_state(int(seed)))

    def _raw(self) -> int:
        """The next raw 64-bit output: step, then XSL-RR."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _MASK64
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def random(self) -> float:
        """A float in ``[0, 1)``: ``Generator.random()``."""
        return (self._raw() >> 11) * _DOUBLE_UNIT

    def uniform(self, lo: float, hi: float) -> float:
        """A float in ``[lo, hi)``: ``Generator.uniform(lo, hi)``."""
        return lo + (hi - lo) * self.random()

    def below(self, n: int) -> int:
        """An int in ``[0, n)``, ``1 <= n < 2**32``:
        ``Generator.integers(0, n)``."""
        if not 1 < n < _TWO32:
            if n == 1:
                return 0
            raise ConfigError(f"Draws.below needs 1 <= n < 2**32, got {n!r}")
        while True:
            half = self._half
            if half >= 0:
                self._half = -1
                m = half * n
            else:
                r = self._raw()
                self._half = r >> 32
                m = (r & _MASK32) * n
            low = m & _MASK32
            # numpy tests the cheap bound first: the threshold is < n
            if low >= n or low >= (_TWO32 - n) % n:
                return m >> 32


class RngStreams:
    """A family of named, independent RNG streams under one root seed.

    >>> streams = RngStreams(42)
    >>> a = streams.get("workload", 0, 3)   # node 0, thread 3
    >>> b = streams.get("workload", 0, 4)
    >>> a is streams.get("workload", 0, 3)  # cached per key
    True
    """

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)
        self._cache: dict[tuple, Draws] = {}

    def get(self, *key: object) -> Draws:
        """Return (and cache) the stream for ``key``."""
        k = tuple(key)
        draws = self._cache.get(k)
        if draws is None:
            draws = Draws.seeded(derive_seed(self.root_seed, *k))
            self._cache[k] = draws
        return draws

    def fork(self, *key: object) -> "RngStreams":
        """A child family whose streams are independent of this one's."""
        return RngStreams(derive_seed(self.root_seed, "fork", *key))
