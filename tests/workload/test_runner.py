"""Tests for the workload runner and metrics."""

import json
import time

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.faults import CrashWindow, FaultPlan
from repro.locks import LOCK_TYPES, DistributedLock, register_lock_type
from repro.locktable import count_deadline_ns
from repro.obs import INTERVALS, PROTOCOL, RING
from repro.schedcheck.scenario import coarse_config
from repro.workload import LatencySummary, WorkloadSpec, run_workload, runner
from tests.conftest import refcounted_runs, small_workload_spec as small_spec
from tests.obs.test_postmortem import HangLock
from tests.workload.test_runner_edge_cases import ExplodingLock

#: ``mixedcas`` counts its double grants instead of failing the client,
#: so only the post-run verdict sees them (mixed locality, Table-1 races)
MIXEDCAS = small_spec(n_locks=2, locality_pct=50.0, lock_kind="mixedcas",
                      ops_per_thread=5, cs_counter=True, seed=0)


class TestCountMode:
    def test_all_ops_complete(self):
        result = run_workload(small_spec())
        assert result.completed_ops == 40
        assert result.measured_ops == 40
        assert len(result.latencies_ns) == 40

    def test_counters_verified_when_cs_counter(self):
        run_workload(small_spec(cs_counter=True))  # raises on lost updates

    def test_per_thread_ops_recorded(self):
        result = run_workload(small_spec())
        assert result.per_thread_ops == {(n, t): 10 for n in range(2) for t in range(2)}

    def test_latencies_positive(self):
        result = run_workload(small_spec())
        assert (result.latencies_ns > 0).all()

    def test_local_mask_full_locality(self):
        result = run_workload(small_spec(locality_pct=100.0))
        assert result.local_mask.all()

    def test_mixed_locality_has_both_classes(self):
        result = run_workload(small_spec(locality_pct=50.0, ops_per_thread=30))
        assert result.local_mask.any()
        assert (~result.local_mask).any()

    def test_audit_clean_for_alock(self):
        result = run_workload(small_spec(locality_pct=60.0, ops_per_thread=15))
        assert result.atomicity_violations == 0

    def test_all_lock_kinds_run(self):
        for kind in ("alock", "spinlock", "mcs"):
            result = run_workload(small_spec(lock_kind=kind, ops_per_thread=5))
            assert result.completed_ops == 20

    def test_cs_delay_lengthens_latency(self):
        fast = run_workload(small_spec())
        slow = run_workload(small_spec(cs_ns=5_000))
        assert slow.latencies_ns.mean() > fast.latencies_ns.mean() + 4_000

    def test_think_time_does_not_count_into_latency(self):
        base = run_workload(small_spec(threads_per_node=1))
        thinky = run_workload(small_spec(threads_per_node=1, think_ns=10_000))
        assert thinky.latencies_ns.mean() == pytest.approx(
            base.latencies_ns.mean(), rel=0.01)

    def test_a_poll_that_never_succeeds_is_a_stall_not_a_hang(self):
        """A waiter polling for a hand-off that never comes keeps the
        schedule busy forever; count mode stops it at the spec's
        deadline and names the clients still running."""
        register_lock_type("poll", PollLock)
        spec = WorkloadSpec(n_nodes=1, threads_per_node=2, n_locks=1,
                            ops_per_thread=1, lock_kind="poll", audit="off")
        deadline = count_deadline_ns(2, 2, 0.0, 0.0)
        started = time.perf_counter()
        try:
            with pytest.raises(SimulationError,
                               match=f"2/2 clients still running at the "
                                     f"{deadline:.0f} ns deadline") as err:
                run_workload(spec)
        finally:
            del LOCK_TYPES["poll"]
        assert time.perf_counter() - started < 10.0
        assert "client-n0t0" in str(err.value)
        assert "client-n0t1" in str(err.value)
        assert json.loads(err.value._postmortem)["reason"] == "stall"

    def test_a_table1_race_fails_the_verdict_with_its_postmortem(self):
        with pytest.raises(SimulationError,
                           match="race auditor recorded 7 Table-1 "
                                 "violation") as err:
            run_workload(MIXEDCAS.with_(config=coarse_config()))
        dump = json.loads(err.value._postmortem)
        assert (dump["reason"], dump["detail"]) == ("checker", str(err.value))
        assert "error" not in dump and err.value.__cause__ is None

    def test_a_lost_update_is_a_simulation_error(self):
        with pytest.raises(SimulationError,
                           match="lost updates detected: guarded counters "
                                 "sum to 19, expected 20") as err:
            run_workload(MIXEDCAS.with_(audit="off", seed=3))
        assert json.loads(err.value._postmortem)["reason"] == "checker"

    def test_alock_passes_the_budget_bound_from_protocol_up(self, monkeypatch):
        """The verdict checks ALock's budget bound whenever the log keeps
        ``peterson.acquired``; at ``RING`` it keeps only ``cs.enter`` and
        the check is skipped, not failed."""
        judged, check = [], runner.check_budget_bounds

        def spy(trace, budgets):
            judged.append((sorted(budgets), check(trace, budgets)))
            return judged[-1][1]

        monkeypatch.setattr(runner, "check_budget_bounds", spy)
        spec = small_spec(locality_pct=50.0, cs_counter=True)
        for obs in (RING, PROTOCOL, INTERVALS):
            run_workload(spec, obs=obs)
        assert judged == [([f"alock[{i}]@n{i % 2}" for i in range(4)], [])] * 2


class TestPickersShareTheTablesLists:
    """Each client's :class:`LockPicker` reads the table's own index
    lists instead of a copy (240 copies of a 950-entry list in a paper
    cell).  Sharing makes a mutating picker a bug that crosses clients,
    so the lists must be the table's and unchanged by a run."""

    def test_pickers_hold_the_table_lists_and_leave_them_unchanged(
            self, monkeypatch):
        pickers = []

        class RecordingPicker(runner.LockPicker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pickers.append(self)

        monkeypatch.setattr(runner, "LockPicker", RecordingPicker)
        spec = small_spec(n_locks=8, locality_pct=50.0, cs_counter=True)
        cluster, table = runner.build_cluster(spec)
        before = {node: (list(table.local_indices(node)),
                         list(table.remote_indices(node)))
                  for node in range(spec.n_nodes)}
        procs, tally = runner.spawn_clients(spec, cluster, table)
        deadline = count_deadline_ns(40, spec.total_threads, 0.0, 0.0)
        assert runner.run_clients(cluster.env, procs, deadline) is None
        cluster.close()
        assert tally["ops"] == 40 and not all(tally["local_flags"])
        assert len(pickers) == spec.total_threads
        for picker in pickers:
            assert picker._local is table.local_indices(picker.node)
            assert picker._remote is table.remote_indices(picker.node)
        assert {node: (table.local_indices(node), table.remote_indices(node))
                for node in range(spec.n_nodes)} == before


class PollLock(DistributedLock):
    """Polls a word nobody ever writes."""

    kind = "poll"

    def __init__(self, cluster, home_node, name=""):
        super().__init__(cluster, home_node, name)
        self._ptr = cluster.regions[home_node].alloc_ptr(8)

    def lock(self, ctx):
        while (yield from ctx.read(self._ptr)) != 1:
            yield 100.0
        self._note_acquired(ctx)  # pragma: no cover

    def unlock(self, ctx):  # pragma: no cover - never reached
        self._note_released(ctx)
        yield ctx.fence()


class TestDurationMode:
    def test_measures_window_only(self):
        spec = small_spec(ops_per_thread=0, warmup_ns=100_000,
                          measure_ns=500_000)
        result = run_workload(spec)
        assert result.window_ns == 500_000
        assert result.measured_ops > 0
        assert result.throughput_ops_per_sec > 0

    def test_longer_window_more_ops(self):
        short = run_workload(small_spec(ops_per_thread=0, measure_ns=300_000))
        long = run_workload(small_spec(ops_per_thread=0, measure_ns=1_200_000))
        assert long.measured_ops > 2 * short.measured_ops

    def test_throughput_scale_sane(self):
        """4 threads of ~600ns local ALock ops -> order 10^6..10^7 op/s."""
        result = run_workload(small_spec(ops_per_thread=0, measure_ns=1_000_000))
        assert 1e5 < result.throughput_ops_per_sec < 1e8

    def test_a_table1_race_fails_the_verdict_with_its_postmortem(self):
        spec = MIXEDCAS.with_(ops_per_thread=0, warmup_ns=0,
                              measure_ns=200_000, config=coarse_config())
        with pytest.raises(SimulationError,
                           match="race auditor recorded 64 Table-1 "
                                 "violation") as err:
            run_workload(spec)
        assert json.loads(err.value._postmortem)["reason"] == "checker"

    def test_a_dead_client_fails_the_run(self):
        """Judged like count mode: the window's end does not hide a
        client that died."""
        register_lock_type("exploding", ExplodingLock)
        spec = WorkloadSpec(n_nodes=1, threads_per_node=2, n_locks=1,
                            lock_kind="exploding", measure_ns=10_000)
        try:
            with pytest.raises(SimulationError, match=r"client-n0t0 died: "
                               r"RuntimeError: boom \(\+1 more\)") as err:
                run_workload(spec)
        finally:
            del LOCK_TYPES["exploding"]
        dump = json.loads(err.value._postmortem)
        assert dump["reason"] == "exception"
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_clients_parked_on_an_empty_schedule_are_a_deadlock(self):
        """A budget hand-off that never wakes the waiter leaves all four
        clients parked inside the window; count mode calls the same spec
        a deadlock, and so does duration mode."""
        spec = WorkloadSpec(n_nodes=2, threads_per_node=2, n_locks=2,
                            locality_pct=50.0,
                            lock_options={"bug": "skip_budget_wait"},
                            warmup_ns=0, measure_ns=200_000)
        for mode in (spec, spec.with_(ops_per_thread=40)):
            with pytest.raises(SimulationError,
                               match="4/4 clients parked with an empty "
                                     "schedule") as err:
                run_workload(mode)
            assert json.loads(err.value._postmortem)["reason"] == "deadlock"

    def test_waiters_stranded_behind_a_retired_client_are_measured(self):
        """An unleased crash window: clients whose verbs exhaust their
        retries retire holding their locks, and those locks' waiters
        park with nothing left to run.  That is the cost the run
        measures, not a deadlock (count mode, which must finish every
        operation, calls it one)."""
        plan = FaultPlan(crash_windows=(CrashWindow(1, 30_000.0, 400_000.0),),
                         retry_timeout_ns=3_000.0, retry_limit=3)
        spec = WorkloadSpec(n_nodes=3, threads_per_node=3, n_locks=6,
                            locality_pct=60.0, warmup_ns=20_000.0,
                            measure_ns=300_000.0, faults=plan)
        with refcounted_runs() as closed:
            result = run_workload(spec)
        assert result.fault_stats["aborted_clients"] == 4
        assert len([name for name in closed[0].alive
                    if name.startswith("client-")]) == 5


class TestDeterminism:
    def test_same_spec_same_result(self):
        a = run_workload(small_spec(locality_pct=80.0))
        b = run_workload(small_spec(locality_pct=80.0))
        assert a.completed_ops == b.completed_ops
        assert np.array_equal(a.latencies_ns, b.latencies_ns)

    def test_different_seed_different_timeline(self):
        a = run_workload(small_spec(locality_pct=80.0, seed=1, ops_per_thread=20))
        b = run_workload(small_spec(locality_pct=80.0, seed=2, ops_per_thread=20))
        assert not np.array_equal(a.latencies_ns, b.latencies_ns)


class TestMetrics:
    def test_latency_summary_from_samples(self):
        samples = np.arange(1, 1001, dtype=np.float64)
        summary = LatencySummary.from_samples(samples)
        assert summary.count == 1000
        assert summary.p50 == pytest.approx(500.5)
        assert summary.max == 1000

    def test_latency_summary_empty(self):
        summary = LatencySummary.from_samples(np.empty(0))
        assert summary.count == 0
        assert np.isnan(summary.mean)

    def test_cdf_monotone(self):
        result = run_workload(small_spec(ops_per_thread=20))
        values, probs = result.latency_cdf()
        assert (np.diff(values) >= 0).all()
        assert (np.diff(probs) >= 0).all()
        assert probs[-1] == pytest.approx(1.0)

    def test_cdf_subsets(self):
        result = run_workload(small_spec(locality_pct=50.0, ops_per_thread=30))
        lv, _ = result.latency_cdf(subset="local")
        rv, _ = result.latency_cdf(subset="remote")
        assert len(lv) > 0 and len(rv) > 0
        # remote ops are slower at every quantile in an uncongested run
        assert np.median(rv) > np.median(lv)

    def test_cdf_downsampling(self):
        result = run_workload(small_spec(ops_per_thread=30))
        values, probs = result.latency_cdf(points=10)
        assert len(values) <= 10

    def test_summary_row_fields(self):
        result = run_workload(small_spec())
        row = result.summary_row()
        assert row["lock"] == "alock"
        assert row["violations"] == 0
        assert row["throughput_ops"] > 0
        # fairness + deep tail live in every summary row
        assert row["jain"] is not None and 0.0 < row["jain"] <= 1.0
        assert row["lat_p999_ns"] is not None
        assert row["lat_p999_ns"] >= row["lat_p99_ns"]


class TestFinishedRunLeavesNoCyclicGarbage:
    """``run_workload`` closes its cluster: whatever the run left in
    flight, the cluster is freed by reference counting as soon as the
    result (or the error) is built, with nothing for the collector."""

    @pytest.fixture(autouse=True)
    def warm_up(self):
        # first-time imports leave cycles of their own (stdlib enums)
        run_workload(small_spec(lock_kind="alock", locality_pct=50.0,
                                ops_per_thread=2,
                                faults=FaultPlan(verb_loss_rate=0.1)))

    @pytest.mark.parametrize("kind", ["alock", "mcs", "spinlock"])
    def test_duration_mode_abandons_clients_mid_verb(self, kind):
        spec = small_spec(lock_kind=kind, n_nodes=3, threads_per_node=4,
                          n_locks=6, locality_pct=50.0, ops_per_thread=0,
                          warmup_ns=1_000, measure_ns=20_000)
        with refcounted_runs() as closed:
            result = run_workload(spec)
        assert result.measured_ops > 0
        assert closed[0].alive and closed[0].in_flight

    def test_count_mode(self):
        with refcounted_runs() as closed:
            run_workload(small_spec(cs_counter=True))
        assert closed[0].alive == []

    def test_fault_injected_run_with_a_lost_transmission_in_flight(self):
        spec = small_spec(n_nodes=3, threads_per_node=4, locality_pct=50.0,
                          ops_per_thread=0, warmup_ns=1_000,
                          measure_ns=30_000,
                          faults=FaultPlan(verb_loss_rate=0.3,
                                           retry_timeout_ns=10_000.0,
                                           lease_ns=20_000.0))
        with refcounted_runs() as closed:
            result = run_workload(spec)
        assert result.fault_stats["retries"] > 0
        alive = closed[0].alive
        assert any(name.endswith("-lost-tx") for name in alive)
        # leased acquisitions still racing their lease timers (any_of)
        assert any("-acquire-" in name for name in alive)

    def test_deadlocking_spec_raises_with_its_postmortem(self):
        register_lock_type("hang", HangLock)
        spec = WorkloadSpec(n_nodes=1, threads_per_node=2, n_locks=1,
                            ops_per_thread=1, lock_kind="hang", audit="off")
        try:
            with refcounted_runs() as closed:
                with pytest.raises(SimulationError, match="parked with an empty schedule") as err:
                    run_workload(spec)
                assert err.value._postmortem
                del err
        finally:
            del LOCK_TYPES["hang"]
        assert len(closed[0].alive) == 2
