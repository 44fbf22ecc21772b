"""``Draws`` against numpy: the same numbers, bit for bit.

Every simulator stream is a :class:`Draws`, a pure-Python copy of
``np.random.default_rng(seed)``: numpy's ``SeedSequence`` seeding, its
PCG64 bit generator, and the scalar rules the simulator draws through.
Every decision string, corpus entry and digest recorded against numpy's
stream still replays only because the copy is exact.  These tests are
the tripwire for a numpy that changes one of the mirrored pieces: the
seeding, the PCG64 step and output, ``next_double`` (and
``random_uniform`` over it), PCG64's buffered 32-bit half, Lemire's
bounded multiply with its rejection threshold, and the draw-nothing
``n == 1`` case.  Each test builds both sides from the same seed.
"""

import random

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.rng import Draws
from repro.workload.generator import _zipf_cdf, _zipf_rank

#: bounds below 2**32; 2**31 + 1 rejects about half of its 32-bit draws
BOUNDS = (1, 2, 3, 7, 1000, 2**31 - 1, 2**31 + 1, 2**32 - 1)

#: seeds at the edges of SeedSequence's 32-bit word split, and past the
#: 4-word pool (the extra words take the pool's second mixing loop)
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**127,
              2**128 - 1, 2**160 + 12345)

#: draws per comparison: long enough for the high half to be buffered
#: and rejected across many raw outputs
N_CALLS = 384


def _pair(seed):
    return Draws.seeded(seed), np.random.default_rng(seed)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_edge_seed_raw_outputs_match_the_bit_generator(seed):
    draws, gen = _pair(seed)
    assert ([draws._raw() for _ in range(200)]
            == gen.bit_generator.random_raw(200).tolist())


def test_random_seed_raw_outputs_match_the_bit_generator():
    plan = random.Random(2024)
    for _ in range(300):
        seed = plan.getrandbits(64)
        draws, gen = _pair(seed)
        assert ([draws._raw() for _ in range(64)]
                == gen.bit_generator.random_raw(64).tolist()), seed


@pytest.mark.parametrize("seed", range(60))
def test_interleaved_scalar_draws_match_the_generator(seed):
    """``below``, ``random`` and ``uniform`` in a seed-chosen order
    against the generator's scalar calls in the same order."""
    plan = random.Random(seed)
    draws, gen = _pair(seed)
    for i in range(N_CALLS):
        roll = plan.random()
        if roll < 0.2:
            got, want = draws.random(), gen.random()
        elif roll < 0.3:
            got, want = draws.uniform(0.0, 150.0), gen.uniform(0.0, 150.0)
        else:
            n = plan.choice(BOUNDS)
            got, want = draws.below(n), int(gen.integers(0, n))
        assert got == want, f"call {i}"
        assert type(got) is type(want)


@pytest.mark.parametrize("n", BOUNDS)
def test_each_bound_alone_matches_the_generator(n):
    for seed in range(5):
        draws, gen = _pair(seed)
        assert ([draws.below(n) for _ in range(N_CALLS)]
                == [int(gen.integers(0, n)) for _ in range(N_CALLS)])


@pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (0.0, 37.5), (-3.5, 1e9),
                                   (5.0, 5.0), (0, 7)])
def test_uniform_matches_the_generator(lo, hi):
    for seed in range(4):
        draws, gen = _pair(seed)
        got = [draws.uniform(lo, hi) for _ in range(N_CALLS)]
        assert got == [gen.uniform(lo, hi) for _ in range(N_CALLS)]
        assert all(type(x) is float for x in got)


def test_a_single_choice_draws_nothing():
    """``integers(0, 1)`` consumes no randomness, so neither may
    ``below(1)``: the next draw is the stream's first."""
    draws, gen = _pair(7)
    for _ in range(5):
        assert draws.below(1) == 0
    assert draws.random() == gen.random()


@pytest.mark.parametrize("h", (1, 2, 5, 500, 2**31 + 1))
@pytest.mark.parametrize("k", (0, 1, 3, 200))
def test_offset_draws_match_a_sized_integers_call(h, k):
    """What PCT's change points rely on: ``1 + below(h)``, ``k`` times,
    is ``integers(1, h + 1, size=k)``."""
    for seed in range(4):
        draws, gen = _pair(seed)
        assert ([1 + draws.below(h) for _ in range(k)]
                == gen.integers(1, h + 1, size=k).tolist())


def test_seeded_is_default_rng_of_the_seed():
    draws = Draws.seeded(11)
    gen = np.random.default_rng(11)
    assert [draws.below(10) for _ in range(50)] == gen.integers(0, 10, 50).tolist()


@pytest.mark.parametrize("n", (0, -1, 2**32, 2**40))
def test_out_of_range_bound_is_a_config_error(n):
    with pytest.raises(ConfigError, match="1 <= n < 2\\*\\*32"):
        Draws.seeded(0).below(n)


@pytest.mark.parametrize("seed", (-1, -(2**64)))
def test_negative_seed_is_a_config_error(seed):
    """numpy's ``SeedSequence`` refuses a negative seed too."""
    with pytest.raises(ValueError):
        np.random.default_rng(seed)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        Draws.seeded(seed)


def _numpy_zipf_cdf(n, theta):
    """The lock picker's CDF as it was written against numpy."""
    with np.errstate(over="ignore"):
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), theta)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


@pytest.mark.parametrize("n", (1, 2, 7, 50, 1000))
@pytest.mark.parametrize("theta", (0.0, 1e-9, 0.5, 0.9, 0.99, 1.2, 3.7, 300.0))
def test_zipf_cdf_and_picks_match_numpy(n, theta):
    """``accumulate`` + a right binary search are float for float
    ``np.cumsum`` + ``np.searchsorted(side="right")``; at ``theta=300``
    the far ranks' powers overflow, and their weight is numpy's 0."""
    want = _numpy_zipf_cdf(n, theta)
    cdf = _zipf_cdf(n, theta)
    assert cdf == want.tolist()
    draws = Draws.seeded(n)
    for _ in range(200):
        u = draws.random()
        assert _zipf_rank(cdf, u) == int(np.searchsorted(want, u, side="right"))
    # the edges of the unit interval, and every CDF value exactly
    for u in (0.0, 1.0 - 2**-53, *cdf):
        assert _zipf_rank(cdf, u) == int(np.searchsorted(want, u, side="right"))
