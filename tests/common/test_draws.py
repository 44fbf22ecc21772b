"""``Draws`` against numpy: the same numbers, bit for bit.

Schedule policies and lock pickers draw through :class:`Draws` instead
of a :class:`numpy.random.Generator`, and every decision string, corpus
entry and digest recorded before the switch still replays — only
because ``Draws`` reproduces the generator's scalar ``integers(0, n)``
and ``random()`` exactly.  These tests are the tripwire for a numpy that
changes one of the three mirrored rules: PCG64's buffered 32-bit half,
Lemire's bounded multiply with its rejection threshold, and the
draw-nothing ``n == 1`` case.  The stream is built from
``default_rng(seed).bit_generator`` on both sides, so both start from
the same seeded state.
"""

import random

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.rng import _BATCH, Draws

#: bounds below 2**32; 2**31 + 1 rejects about half of its 32-bit draws
BOUNDS = (1, 2, 3, 7, 1000, 2**31 - 1, 2**31 + 1, 2**32 - 1)


def _pair(seed):
    return (Draws(np.random.default_rng(seed).bit_generator),
            np.random.default_rng(seed))


@pytest.mark.parametrize("seed", range(60))
def test_interleaved_scalar_draws_match_the_generator(seed):
    """``below`` and ``random`` in a seed-chosen order, long enough to
    cross several read-ahead batches, against the generator's scalar
    calls in the same order."""
    plan = random.Random(seed)
    draws, gen = _pair(seed)
    n_calls = 6 * _BATCH
    for i in range(n_calls):
        if plan.random() < 0.3:
            got, want = draws.random(), gen.random()
        else:
            n = plan.choice(BOUNDS)
            got, want = draws.below(n), int(gen.integers(0, n))
        assert got == want, f"call {i}"
        assert type(got) is type(want)


@pytest.mark.parametrize("n", BOUNDS)
def test_each_bound_alone_matches_the_generator(n):
    for seed in range(5):
        draws, gen = _pair(seed)
        assert ([draws.below(n) for _ in range(3 * _BATCH)]
                == [int(gen.integers(0, n)) for _ in range(3 * _BATCH)])


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
