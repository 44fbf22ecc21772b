"""Schedule-exploration post-mortems: every failing ScheduleResult
carries a dump, and the shrinker (satellite 6) always reports the dump
of the *shrunk* failure — not a stale one from the original schedule."""

import hashlib
import json

from repro.obs.postmortem import SCHEMA
from repro.schedcheck.explore import explore_random, replay, run_schedule
from repro.schedcheck.scenario import LockScenario
from repro.schedcheck.shrink import shrink_failure

LOST_WAKEUP = LockScenario(
    lock_kind="mcs", n_nodes=1, threads_per_node=3, ops_per_thread=3,
    seed=0, lock_options=(("bug", "lost_wakeup"),
                          ("poll_interval_ns", 200.0)))

CORRECT = LockScenario(
    lock_kind="mcs", n_nodes=1, threads_per_node=2, ops_per_thread=2,
    seed=0)


#: sha256 of ``first_failure().dump``: the ring view of the log must
#: freeze the same window, byte for byte.  Schedule-derived (recorded
#: under ``SCHEDULE_VERSION`` 2; version 3 moved no MCS slot); ``python
#: tests/schedcheck/test_postmortem_dump.py`` prints the current value.
FIRST_FAILURE_DUMP_SHA256 = \
    "686bf3a20c1b336bb53d58bb93aded0e3538398babde372964674bf0b9449560"


def first_failure():
    report = explore_random(LOST_WAKEUP, 50, seed=1, stop_on_failure=True)
    assert report.first_failure is not None
    return report.first_failure


class TestScheduleResultDump:
    def test_failures_carry_a_dump(self):
        failure = first_failure()
        dump = json.loads(failure.dump)
        assert dump["schema"] == SCHEMA
        assert dump["reason"] == failure.failure_kind
        # the dump's decision string is the failing schedule's — replayable
        assert dump["sched"]["decisions"] == failure.decisions.to_string()
        assert hashlib.sha256(failure.dump.encode()).hexdigest() == \
            FIRST_FAILURE_DUMP_SHA256

    def test_ok_results_carry_none(self):
        result = run_schedule(CORRECT, None)
        assert result.ok and result.dump is None

    def test_replaying_the_dumped_decisions_reproduces_the_failure(self):
        failure = first_failure()
        decisions = json.loads(failure.dump)["sched"]["decisions"]
        rerun = replay(LOST_WAKEUP, decisions)
        assert rerun.failure_kind == failure.failure_kind
        assert rerun.dump == failure.dump


class TestShrinkerPreservesDump:
    def test_shrunk_result_dump_matches_shrunk_decisions(self):
        failure = first_failure()
        shrunk = shrink_failure(LOST_WAKEUP, failure, max_replays=120)
        assert shrunk.result.failure_kind == failure.failure_kind
        dump = json.loads(shrunk.result.dump)
        # the invariant: the reported dump is the snapshot of the final
        # (shrunk) failing replay, so its stored decision string is the
        # shrunk one, byte for byte
        assert dump["sched"]["decisions"] == shrunk.decisions.to_string()
        assert dump["sched"]["decisions"] == \
            shrunk.result.decisions.to_string()
        assert len(shrunk.decisions) <= len(failure.decisions)


if __name__ == "__main__":  # re-record: print what the golden should be
    print(hashlib.sha256(first_failure().dump.encode()).hexdigest())
