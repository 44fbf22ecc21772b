"""Checker tests: CS overlap, budget bounds, linearizability.

Unit cases drive the checkers with hand-built traces/histories (including
the required non-linearizable rejection); the integration cases run real
scenarios and cross-check the trace-level verdict against the memory-level
RaceAuditor — independent observers that must agree.
"""

import pytest

from repro.obs.trace import TraceEvent
from repro.schedcheck import (
    CounterModel,
    LockScenario,
    Op,
    check_budget_bounds,
    check_cs_overlap,
    run_schedule,
)
from repro.schedcheck.linearize import check_linearizable


def ev(time, actor, kind, detail=""):
    return TraceEvent(time, actor, kind, detail)


class TestCsOverlap:
    def test_clean_trace_accepted(self):
        trace = [ev(0, "t0@n0", "cs.enter", "L"),
                 ev(10, "t0@n0", "cs.exit", "L"),
                 ev(20, "t1@n1", "cs.enter", "L"),
                 ev(30, "t1@n1", "cs.exit", "L")]
        assert check_cs_overlap(trace) == []

    def test_two_holders_flagged(self):
        trace = [ev(0, "t0@n0", "cs.enter", "L"),
                 ev(5, "t1@n1", "cs.enter", "L"),
                 ev(10, "t0@n0", "cs.exit", "L")]
        violations = check_cs_overlap(trace)
        assert len(violations) == 1
        assert "t1@n1" in violations[0] and "t0@n0" in violations[0]

    def test_disjoint_locks_may_interleave(self):
        trace = [ev(0, "t0@n0", "cs.enter", "A"),
                 ev(1, "t1@n1", "cs.enter", "B"),
                 ev(2, "t0@n0", "cs.exit", "A"),
                 ev(3, "t1@n1", "cs.exit", "B")]
        assert check_cs_overlap(trace) == []

    def test_exit_by_non_holder_flagged(self):
        trace = [ev(0, "t0@n0", "cs.enter", "L"),
                 ev(5, "t1@n1", "cs.exit", "L")]
        assert len(check_cs_overlap(trace)) == 1


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


def op(opid, action, result, invoke, response, obj="counter[0]"):
    return Op(opid, f"t{opid}@n0", obj, action, result, invoke, response)


class TestLinearizability:
    def test_sequential_counter_history_accepted(self):
        ops = [op(1, "inc", 0, 0, 10), op(2, "inc", 1, 20, 30)]
        assert check_linearizable(ops, CounterModel()) is None

    def test_concurrent_history_with_reordered_results_accepted(self):
        # overlapping ops whose results only fit in the *other* order —
        # exactly what linearizability permits
        ops = [op(1, "inc", 1, 0, 50), op(2, "inc", 0, 5, 45)]
        assert check_linearizable(ops, CounterModel()) is None

    def test_hand_built_non_linearizable_history_rejected(self):
        # two sequential incs both observing 0: the second op's interval
        # starts after the first responded, so no order can explain it
        ops = [op(1, "inc", 0, 0, 10), op(2, "inc", 0, 20, 30)]
        msg = check_linearizable(ops, CounterModel())
        assert msg is not None and "NOT linearizable" in msg

    def test_lost_update_shape_rejected(self):
        # three incs, results 0, 0, 1 with disjoint intervals — the
        # classic lost-update signature a broken lock produces
        ops = [op(1, "inc", 0, 0, 10), op(2, "inc", 0, 20, 30),
               op(3, "inc", 1, 40, 50)]
        assert check_linearizable(ops, CounterModel()) is not None

    def test_refusal_names_the_op_where_the_search_got_stuck(self):
        # six sequential incs; the fifth by invoke time reads 5 where the
        # counter holds 4, so the search stops after four and that op is
        # the first one left
        results = [0, 1, 2, 3, 5, 5]
        ops = [op(i + 1, "inc", r, 20 * i, 20 * i + 10)
               for i, r in enumerate(results)]
        msg = check_linearizable(ops, CounterModel())
        assert "linearized at most 4 ops" in msg
        assert str(ops[4]) in msg
        assert str(ops[0]) not in msg

    def test_empty_history_accepted(self):
        assert check_linearizable([], CounterModel()) is None

    def test_memoization_handles_wide_histories(self):
        # 18 pairwise-overlapping ops with results 0..17: plain Wing-Gong
        # would branch factorially; the memoized search must finish fast
        ops = [op(i + 1, "inc", i, 0 + i * 0.001, 1000 + i) for i in range(18)]
        assert check_linearizable(ops, CounterModel()) is None


class TestCheckersAgreeOnRealRuns:
    def test_clean_run_passes_all_observers(self):
        """Trace checker, race auditor, holder oracle, and the recorded
        history all validate one real ALock run."""
        sc = LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=2,
                          ops_per_thread=2, seed=5)
        run = sc.build()
        run.cluster.env.run(until=run.deadline_ns)
        assert check_cs_overlap(run.cluster.tracer) == []
        assert run.cluster.auditor.violation_count == 0
        assert run.validate() == []
        assert run.history is not None and run.history.ops
        assert run.history.pending_count == 0

    def test_run_schedule_validates_history_of_every_lock_kind(self):
        for kind in ("alock", "mcs", "spinlock"):
            result = run_schedule(
                LockScenario(lock_kind=kind, n_nodes=2, threads_per_node=2,
                             ops_per_thread=2, seed=3), None)
            assert result.ok, f"{kind}: {result.summary()}"

