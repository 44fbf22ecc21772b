"""Deterministic random-number streams.

Experiments must be exactly reproducible: the same seed must yield the
same event order, the same lock choices, and therefore the same measured
numbers.  We derive one independent :class:`numpy.random.Generator` per
named consumer (per thread, per workload component) from a root seed via
``SeedSequence.spawn``-style key hashing, so adding a new consumer never
perturbs the streams of existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np

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
    so hashing them raw would tie seeds to the numpy version.
    """
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
_TWO32 = 1 << 32
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53
#: raw 64-bit outputs fetched per refill: one schedule's policy draws
_BATCH = 64


class Draws:
    """Scalar draws from one bit generator, bit for bit numpy's.

    ``below(n)`` and ``random()`` return exactly what a
    :class:`numpy.random.Generator` over the same bit generator returns
    from scalar ``integers(0, n)`` and ``random()`` calls made in the
    same order — at a fraction of the cost of a numpy scalar call, which
    is what a schedule policy or a lock picker pays once per decision.
    The raw 64-bit outputs are read ahead in batches through
    ``bit_generator.random_raw``, so a ``Draws`` must own its bit
    generator: nothing else may draw from it.

    Three numpy routines are mirrored (``numpy/random/src``):

    * ``next_double``: the top 53 bits of one raw output, times 2**-53;
    * PCG64's ``next_uint32``: a raw output yields its low half, and its
      high half is kept for the next 32-bit draw (``random()`` leaves
      that half buffered);
    * ``random_bounded_uint64_fill`` for a range below 2**32: ``n == 1``
      draws nothing; otherwise Lemire's bounded multiply over 32-bit
      draws, rejecting a draw whose low word is under
      ``(2**32 - n) % n``.

    ``tests/common/test_draws.py`` holds the stream to a ``Generator``'s
    for every rule; it is the tripwire should numpy ever change them.
    """

    __slots__ = ("_bitgen", "_raw", "_half")

    def __init__(self, bit_generator: np.random.BitGenerator):
        self._bitgen = bit_generator
        self._raw: list[int] = []   # read-ahead, next output last
        self._half = -1             # buffered high half; -1: none

    @classmethod
    def seeded(cls, seed: int) -> "Draws":
        """The stream of ``np.random.default_rng(seed)``."""
        return cls(np.random.default_rng(seed).bit_generator)

    def _refill(self) -> None:
        batch = self._bitgen.random_raw(_BATCH).tolist()
        batch.reverse()
        self._raw.extend(batch)

    def random(self) -> float:
        """A float in ``[0, 1)``: ``Generator.random()``."""
        raw = self._raw
        if not raw:
            self._refill()
        return (raw.pop() >> 11) * _DOUBLE_UNIT

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
                raw = self._raw
                if not raw:
                    self._refill()
                r = raw.pop()
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
        self._cache: dict[tuple, np.random.Generator] = {}

    def get(self, *key: object) -> np.random.Generator:
        """Return (and cache) the generator for ``key``."""
        k = tuple(key)
        gen = self._cache.get(k)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self.root_seed, *k))
            self._cache[k] = gen
        return gen

    def fork(self, *key: object) -> "RngStreams":
        """A child family whose streams are independent of this one's."""
        return RngStreams(derive_seed(self.root_seed, "fork", *key))
