"""The post-run verdict (``BuiltRun.validate``): budget bound, counter
conservation, race audit.

Unit cases drive the budget-bound check with hand-built traces; the
integration cases run real scenarios, where the holder oracle, the
verdict and the memory-level RaceAuditor must agree a schedule is clean,
and walk ``mixedcas`` — the one registered lock without the strict
holder oracle — to show its double grants reach the verdict.
"""

from repro.common.rng import derive_seed
from repro.obs.trace import TraceEvent
from repro.schedcheck import (
    LockScenario,
    check_budget_bounds,
    make_policy,
    run_schedule,
)


def ev(time, actor, kind, detail=""):
    return TraceEvent(time, actor, kind, detail)


class TestBudgetBounds:
    BUDGETS = {"L": (0, 2, 4)}  # home node 0, local budget 2, remote 4

    def test_within_budget_accepted(self):
        trace = [ev(0, "t0@n0", "peterson.acquired", "L cohort=LOCAL via x"),
                 ev(1, "t0@n0", "cs.enter", "L"),
                 ev(2, "t1@n0", "cs.enter", "L")]
        assert check_budget_bounds(trace, self.BUDGETS) == []

    def test_local_overrun_flagged(self):
        trace = [ev(0, "t0@n0", "peterson.acquired", "L cohort=LOCAL via x"),
                 ev(1, "t0@n0", "cs.enter", "L"),
                 ev(2, "t1@n0", "cs.enter", "L"),
                 ev(3, "t0@n0", "cs.enter", "L")]  # 3rd local CS, budget 2
        violations = check_budget_bounds(trace, self.BUDGETS)
        assert len(violations) == 1
        assert "budget 2" in violations[0]

    def test_rewinning_resets_the_streak(self):
        trace = [ev(0, "t0@n0", "peterson.acquired", "L cohort=LOCAL via x"),
                 ev(1, "t0@n0", "cs.enter", "L"),
                 ev(2, "t1@n0", "cs.enter", "L"),
                 ev(3, "t0@n0", "peterson.acquired", "L cohort=LOCAL via x"),
                 ev(4, "t0@n0", "cs.enter", "L")]
        assert check_budget_bounds(trace, self.BUDGETS) == []

    def test_remote_cohort_uses_remote_budget(self):
        trace = [ev(0, "t0@n1", "peterson.acquired", "L cohort=REMOTE via x")]
        trace += [ev(i + 1, f"t{i % 2}@n1", "cs.enter", "L")
                  for i in range(4)]
        assert check_budget_bounds(trace, self.BUDGETS) == []
        trace.append(ev(9, "t0@n1", "cs.enter", "L"))  # 5th > budget 4
        assert len(check_budget_bounds(trace, self.BUDGETS)) == 1

    def test_non_budgeted_locks_ignored(self):
        trace = [ev(i, "t0@n0", "cs.enter", "other") for i in range(10)]
        assert check_budget_bounds(trace, self.BUDGETS) == []


class TestCheckersAgreeOnRealRuns:
    def test_clean_run_passes_all_observers(self):
        """Holder oracle (no client died), race auditor and the verdict
        all accept one real ALock run."""
        sc = LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=2,
                          ops_per_thread=2, seed=5)
        run = sc.build()
        run.cluster.env.run(until=run.deadline_ns)
        assert all(p.ok for p in run.processes)
        assert run.cluster.auditor.violation_count == 0
        assert run.validate() == []

    def test_run_schedule_passes_each_lock_kind(self):
        for kind in ("alock", "mcs", "spinlock"):
            result = run_schedule(
                LockScenario(lock_kind=kind, n_nodes=2, threads_per_node=2,
                             ops_per_thread=2, seed=3), None)
            assert result.ok, f"{kind}: {result.summary()}"


class _KeepLast:
    """A scenario that keeps the last run it built."""

    def __init__(self, inner):
        self.inner = inner
        self.last = None

    def build(self):
        self.last = self.inner.build()
        return self.last


class TestMixedCasDoubleGrantsReachTheVerdict:
    """``mixedcas`` counts double grants in ``overlap_oracle`` instead of
    raising, so the explorer sees them only through the post-run
    verdict: every schedule with an overlap must be classified
    ``checker`` by the race audit."""

    SCENARIO = LockScenario(lock_kind="mixedcas", n_nodes=2,
                            threads_per_node=3, ops_per_thread=3,
                            pick="single")

    def test_every_overlapping_schedule_is_a_race_audit_failure(self):
        scenario = _KeepLast(self.SCENARIO)
        overlapping = 0
        for policy in ("random", "pct"):
            for i in range(40):
                pol = make_policy(
                    policy, derive_seed(0, "schedcheck", "explore", i))
                result = run_schedule(scenario, pol)
                lock = scenario.last.table.entries[0].lock
                if lock.overlap_oracle > 0:
                    overlapping += 1
                    assert result.failure_kind == "checker", result.summary()
                    assert "race auditor recorded" in result.detail
        assert overlapping > 0
