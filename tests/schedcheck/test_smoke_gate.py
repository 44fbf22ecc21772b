"""Tier-1 schedule-exploration smoke gate.

A fixed-seed random exploration of the correct ALock (4 threads) that
must stay clean *and* fast: N=50 schedules under 30 s wall-clock.  The
gate catches three regressions at once — a real interleaving bug
reaching the lock, a determinism leak in the policy machinery (the
digest set is pinned by replaying one schedule), and an exploration
slowdown that would make the harness too expensive for CI.
"""

import time

from repro.schedcheck import LockScenario, explore_random, replay, run_schedule

GATE_SCENARIO = LockScenario(lock_kind="alock", n_nodes=2,
                             threads_per_node=2, ops_per_thread=3, seed=7)
GATE_SEED = 2026
GATE_SCHEDULES = 50


class TestSmokeGate:
    def test_fifty_random_schedules_all_clean_under_30s(self):
        # Wall-clock guards the gate's own cost; it never feeds results.
        start = time.monotonic()
        report = explore_random(GATE_SCENARIO, GATE_SCHEDULES,
                                seed=GATE_SEED)
        elapsed = time.monotonic() - start
        assert report.schedules_run == GATE_SCHEDULES
        assert report.ok_count == GATE_SCHEDULES, report.summary()
        # ties must actually be getting explored, not skipped
        assert report.distinct_executions > GATE_SCHEDULES // 2
        assert elapsed < 30.0, f"smoke gate too slow: {elapsed:.1f}s"

    def test_gate_schedule_replays_byte_identical(self):
        from repro.common.rng import derive_seed
        from repro.schedcheck.policies import RandomWalkPolicy

        pseed = derive_seed(GATE_SEED, "schedcheck", "explore", 0)
        recorded = run_schedule(GATE_SCENARIO, RandomWalkPolicy(pseed))
        assert replay(GATE_SCENARIO, recorded.decisions).digest == \
            recorded.digest
