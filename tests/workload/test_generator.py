"""Tests for the per-thread lock picker."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.rng import Draws
from repro.workload import LockPicker, WorkloadSpec


def make_picker(locality=90.0, local=(0, 2), remote=(1, 3, 5),
                distribution="uniform", seed=0, theta=0.99):
    spec = WorkloadSpec(n_nodes=2, n_locks=6, locality_pct=locality,
                        distribution=distribution, zipf_theta=theta)
    return LockPicker(spec, node=0, thread=0,
                      local_indices=list(local), remote_indices=list(remote),
                      draws=Draws.seeded(seed))


class TestLocality:
    def test_full_locality_only_local(self):
        picker = make_picker(locality=100.0)
        picks = {picker.next_lock() for _ in range(200)}
        assert picks <= {0, 2}

    def test_zero_locality_only_remote(self):
        picker = make_picker(locality=0.0)
        picks = {picker.next_lock() for _ in range(200)}
        assert picks <= {1, 3, 5}

    def test_observed_locality_tracks_target(self):
        picker = make_picker(locality=90.0)
        local = sum(picker.next_lock() in (0, 2) for _ in range(5000))
        assert 100.0 * local / 5000 == pytest.approx(90.0, abs=2.0)

    def test_empty_local_partition_rejected(self):
        spec = WorkloadSpec(n_nodes=2, n_locks=4)
        with pytest.raises(ConfigError):
            LockPicker(spec, 0, 0, [], [1, 2], Draws.seeded(0))

    def test_remote_needed_but_missing_rejected(self):
        spec = WorkloadSpec(n_nodes=2, n_locks=4, locality_pct=50)
        with pytest.raises(ConfigError):
            LockPicker(spec, 0, 0, [0, 1], [], Draws.seeded(0))


class TestDistributions:
    def test_uniform_covers_all_local_locks(self):
        picker = make_picker(locality=100.0, local=tuple(range(8)), remote=())
        picks = {picker.next_lock() for _ in range(500)}
        assert picks == set(range(8))

    def test_zipfian_skews_to_first_rank(self):
        picker = make_picker(locality=100.0, local=tuple(range(16)), remote=(),
                             distribution="zipfian", theta=1.2)
        counts = np.zeros(16)
        for _ in range(4000):
            counts[picker.next_lock()] += 1
        assert counts[0] > counts[8] * 3

    def test_zipfian_theta_zero_roughly_uniform(self):
        picker = make_picker(locality=100.0, local=tuple(range(8)), remote=(),
                             distribution="zipfian", theta=1e-9)
        counts = np.zeros(8)
        for _ in range(8000):
            counts[picker.next_lock()] += 1
        assert counts.min() > 0.7 * counts.max()


class NumpyPicker:
    """The reference: the picker written against a numpy ``Generator``'s
    scalar calls, as every recorded run was made with."""

    def __init__(self, locality, local, remote, distribution, theta, rng):
        self.p_local = locality / 100.0
        self.local = np.asarray(local, dtype=np.int64)
        self.remote = np.asarray(remote, dtype=np.int64)
        self.rng = rng
        self.cdf = {}
        if distribution == "zipfian":
            for name, part in (("local", self.local), ("remote", self.remote)):
                if len(part):
                    w = 1.0 / np.power(np.arange(1, len(part) + 1,
                                                 dtype=np.float64), theta)
                    cdf = np.cumsum(w)
                    self.cdf[name] = cdf / cdf[-1]

    def next_lock(self):
        if self.p_local >= 1.0 or self.rng.random() < self.p_local:
            indices, cdf = self.local, self.cdf.get("local")
        else:
            indices, cdf = self.remote, self.cdf.get("remote")
        if cdf is None:
            return int(indices[self.rng.integers(0, len(indices))])
        rank = int(np.searchsorted(cdf, self.rng.random(), side="right"))
        return int(indices[min(rank, len(indices) - 1)])


class TestExactness:
    """The picker draws from a ``Draws`` stream and must choose exactly
    what the numpy reference over the same seed chooses, at every
    locality — including a
    one-lock partition, which must draw nothing (20 locks on 20 nodes
    leave each node one local lock)."""

    @pytest.mark.parametrize("distribution", ["uniform", "zipfian"])
    @pytest.mark.parametrize("locality", [0.0, 37.5, 85.0, 99.0, 100.0])
    @pytest.mark.parametrize("local,remote", [
        ((4,), (0, 1, 2, 3, 5, 6, 7)),
        ((0, 2, 9), (5,)),
        ((0, 2, 9, 11, 13), (1, 3, 5, 7)),
    ])
    def test_same_choices_as_the_numpy_reference(self, distribution,
                                                 locality, local, remote):
        for seed in range(4):
            picker = make_picker(locality=locality, local=local,
                                 remote=remote, distribution=distribution,
                                 seed=seed, theta=0.9)
            reference = NumpyPicker(locality, local, remote, distribution,
                                    0.9, np.random.default_rng(seed))
            assert ([picker.next_lock() for _ in range(400)]
                    == [reference.next_lock() for _ in range(400)])


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = make_picker(seed=33)
        b = make_picker(seed=33)
        assert [a.next_lock() for _ in range(100)] == [b.next_lock() for _ in range(100)]

    def test_different_seed_different_stream(self):
        a = make_picker(seed=1)
        b = make_picker(seed=2)
        assert [a.next_lock() for _ in range(50)] != [b.next_lock() for _ in range(50)]
