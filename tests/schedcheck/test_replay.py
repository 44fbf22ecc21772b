"""Replay fidelity: decision strings reproduce executions byte for byte.

That they do so under any ``PYTHONHASHSEED`` — or recorded
counterexamples would not be portable between machines and CI runs — is
the exploration-transcript row of ``tests/ci/test_hashseed_identity.py``.
"""

import pytest

from repro.common.rng import derive_seed
from repro.schedcheck import (
    Decisions,
    LockScenario,
    PctPolicy,
    RandomWalkPolicy,
    explore_random,
    replay,
    run_schedule,
)

SC = LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=2,
                  ops_per_thread=2, seed=5)


class TestReplayFidelity:
    @pytest.mark.parametrize("policy_seed", [0, 1, 2, 3])
    def test_random_schedule_replays_byte_identical(self, policy_seed):
        recorded = run_schedule(SC, RandomWalkPolicy(policy_seed))
        replayed = replay(SC, recorded.decisions)
        assert replayed.digest == recorded.digest
        assert replayed.events == recorded.events
        assert replayed.sim_time_ns == recorded.sim_time_ns
        assert replayed.decisions == recorded.decisions

    def test_pct_schedule_replays_byte_identical(self):
        recorded = run_schedule(SC, PctPolicy(11, change_points=4))
        assert replay(SC, recorded.decisions).digest == recorded.digest

    def test_replay_accepts_rendered_strings(self):
        recorded = run_schedule(SC, RandomWalkPolicy(3))
        text = recorded.decisions.to_string()
        assert replay(SC, text).digest == recorded.digest

    def test_empty_string_is_default_schedule(self):
        assert replay(SC, "").digest == run_schedule(SC, None).digest
        assert replay(SC, Decisions()).digest == run_schedule(SC, None).digest

    def test_replay_clamps_out_of_range_choices(self):
        """Edited strings with too-large picks stay runnable (choices
        clamp to the last ready index)."""
        result = replay(SC, {0: 99})
        assert result.digest  # ran to a classified end, whatever it was


class TestExplorationDeterminism:
    def test_same_exploration_seed_same_report(self):
        a = explore_random(SC, 8, seed=23)
        b = explore_random(SC, 8, seed=23)
        assert a.summary() == b.summary()

    def test_per_schedule_seeds_derive_from_root(self):
        # the derivation contract the docs promise
        assert derive_seed(23, "schedcheck", "explore", 0) != \
            derive_seed(23, "schedcheck", "explore", 1)
