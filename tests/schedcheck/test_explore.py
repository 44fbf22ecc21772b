"""Explorer mechanics: enumeration, failure taxonomy, reports, scenarios."""

import pytest

from repro.cluster import Cluster
from repro.common.errors import ConfigError
from repro.faults import FaultPlan
from repro.locktable import count_deadline_ns
from repro.obs import PROTOCOL
from repro.schedcheck import (
    BuiltRun,
    LockScenario,
    ScheduleResult,
    ExplorationReport,
    enumerate_schedules,
    explore_random,
    run_schedule,
)
from repro.schedcheck.fleet import SEEDED_BUGS
from repro.schedcheck.policies import make_policy
from repro.schedcheck.scenario import coarse_config, lock_budgets
from repro.workload import WorkloadSpec
from repro.workload.runner import build_cluster, spawn_clients
from tests.conftest import refcounted_runs

TINY = LockScenario(lock_kind="spinlock", n_nodes=1, threads_per_node=2,
                    ops_per_thread=1, seed=0)
ALOCK_2X2 = LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=2,
                         ops_per_thread=2, seed=5)
LOST_WAKEUP = dict((name, sc) for name, sc, _b in SEEDED_BUGS)["lost_wakeup"]


class TestEnumeration:
    def test_first_schedule_is_the_default(self):
        report = enumerate_schedules(TINY, max_schedules=1)
        assert report.schedules_run == 1
        # a single default run: no non-default decisions were forced

    def test_bounded_enumeration_terminates_and_diversifies(self):
        report = enumerate_schedules(TINY, max_schedules=40,
                                     max_choice_points=3)
        assert report.schedules_run <= 40
        assert report.distinct_executions > 1
        assert report.ok_count == report.schedules_run  # spinlock is correct

    def test_choice_point_bound_limits_the_tree(self):
        shallow = enumerate_schedules(TINY, max_schedules=200,
                                      max_choice_points=1)
        deeper = enumerate_schedules(TINY, max_schedules=200,
                                     max_choice_points=2)
        assert shallow.schedules_run <= deeper.schedules_run

    def test_exhausts_small_trees_before_the_budget(self):
        report = enumerate_schedules(TINY, max_schedules=10_000,
                                     max_choice_points=2)
        assert report.schedules_run < 10_000  # ran out of tree, not budget

    @pytest.mark.parametrize("scenario,max_choice_points,budget,expected", [
        (TINY, 2, 10_000, (4, 2, 4)),
        (TINY, 3, 40, (8, 2, 8)),
        (ALOCK_2X2, 4, 300, (48, 8, 48)),
        (LOST_WAKEUP, 6, 200, (64, 4, 32)),
    ], ids=["tiny-2", "tiny-3", "alock-2x2-4", "lost_wakeup-6"])
    def test_enumeration_counts_are_pinned(self, scenario, max_choice_points,
                                           budget, expected):
        """(runs, distinct executions, ok runs) of the DFS: a change to
        how a prefix is replayed moves these, and so does a change of
        ``SCHEDULE_VERSION`` for the scenarios whose slots it moved."""
        report = enumerate_schedules(scenario, max_schedules=budget,
                                     max_choice_points=max_choice_points)
        assert (report.schedules_run, report.distinct_executions,
                report.ok_count) == expected

    def test_a_hunt_that_runs_nothing_is_rejected(self):
        with pytest.raises(ConfigError, match="budget must be >= 1, got 0"):
            explore_random(TINY, 0)
        with pytest.raises(ConfigError, match="budget must be >= 1, got -3"):
            enumerate_schedules(TINY, max_schedules=-3)
        with pytest.raises(ConfigError,
                           match="max_choice_points must be >= 0, got -1"):
            enumerate_schedules(TINY, max_choice_points=-1)


class _CustomScenario:
    """Anything with build() -> BuiltRun is a scenario; exercise that
    contract with hand-rolled process soups."""

    def __init__(self, behaviour: str):
        self.behaviour = behaviour

    def build(self) -> BuiltRun:
        cluster = Cluster(1, seed=0, audit="off", obs=PROTOCOL)
        env = cluster.env

        def crasher():
            yield env.timeout(10)
            raise RuntimeError("seeded crash")

        def parked():
            yield env.event()  # never triggered -> deadlock

        def spinner():
            while True:
                yield env.timeout(100)  # alive at any deadline -> stall

        def finisher():
            yield env.timeout(10)

        body = {"exception": crasher, "deadlock": parked,
                "stall": spinner, "ok": finisher}[self.behaviour]
        procs = [env.process(body(), name=f"client-{self.behaviour}"),
                 env.process(finisher(), name="client-bystander")]
        return BuiltRun(cluster=cluster, processes=procs, deadline_ns=5_000)


class TestFailureTaxonomy:
    def test_clean_run_is_ok(self):
        result = run_schedule(_CustomScenario("ok"), None)
        assert result.ok and result.failure_kind is None

    def test_client_exception_classified(self):
        result = run_schedule(_CustomScenario("exception"), None)
        assert result.failure_kind == "exception"
        assert "RuntimeError" in result.detail
        assert "seeded crash" in result.detail

    def test_drained_heap_with_parked_clients_is_deadlock(self):
        result = run_schedule(_CustomScenario("deadlock"), None)
        assert result.failure_kind == "deadlock"
        assert "client-deadlock" in result.detail
        assert "last resumed at" in result.detail

    def test_live_clients_at_deadline_is_stall(self):
        result = run_schedule(_CustomScenario("stall"), None)
        assert result.failure_kind == "stall"
        assert "deadline" in result.detail

    def test_summary_mentions_decisions(self):
        result = run_schedule(_CustomScenario("deadlock"), None)
        assert "(default)" in result.summary()

    def test_verb_timeout_kills_a_scenario_client(self):
        """A workload client retires on a VerbTimeout; a scenario's dies
        of it, and the schedule reports the death."""
        sc = LockScenario(lock_kind="spinlock", n_nodes=2, threads_per_node=1,
                          ops_per_thread=1, pick="remote",
                          faults=FaultPlan(verb_loss_rate=1.0,
                                           retry_timeout_ns=5_000.0,
                                           retry_backoff=1.0, retry_limit=2))
        result = run_schedule(sc, None)
        assert result.failure_kind == "exception"
        assert result.detail.startswith("client-n0t0 died: VerbTimeout: ")
        assert result.detail.endswith(" (+1 more)")


class TestFinishedScheduleLeavesNoCyclicGarbage:
    """``run_schedule`` closes the scenario's cluster once the digest,
    the checkers and the dump are taken: each schedule of a walk is
    freed by reference counting, passing or failing."""

    def test_passing_and_failing_schedules(self):
        # first-time imports leave cycles of their own
        run_schedule(LOST_WAKEUP, make_policy("random", seed=3))
        with refcounted_runs() as closed:
            passed = run_schedule(ALOCK_2X2, make_policy("pct", seed=3))
            failed = run_schedule(LOST_WAKEUP, make_policy("random", seed=3))
        assert passed.ok and passed.digest
        assert failed.failure_kind == "deadlock" and failed.dump
        assert closed[0].alive == [] and closed[1].alive


class TestExplorationReport:
    def _failure(self, i):
        return ScheduleResult(ok=False, failure_kind="deadlock",
                              schedule_index=i)

    def test_counts_and_caps(self):
        report = ExplorationReport(max_kept=2)
        report.record(ScheduleResult(ok=True))
        for i in range(5):
            report.record(self._failure(i))
        assert report.schedules_run == 6
        assert report.ok_count == 1
        assert report.failure_counts == {"deadlock": 5}  # all counted
        assert len(report.failures) == 2                 # storage capped
        assert report.first_failure.schedule_index == 0

    def test_stop_on_failure_stops_early(self):
        sc = _CustomScenario("exception")
        report = explore_random(sc, 30, seed=0, stop_on_failure=True)
        assert report.schedules_run == 1
        report = explore_random(sc, 5, seed=0)
        assert report.schedules_run == 5


class TestLockScenarioValidation:
    def test_unknown_picker_rejected(self):
        with pytest.raises(ConfigError):
            LockScenario(pick="round-robin")

    def test_zero_ops_rejected(self):
        with pytest.raises(ConfigError):
            LockScenario(ops_per_thread=0)

    @pytest.mark.parametrize("pick", ["remote", "mixed"])
    def test_remote_picks_need_a_second_node(self, pick):
        """With one node there is no remote lock: the pattern is refused
        at construction instead of every client dying mid-run."""
        with pytest.raises(ConfigError,
                           match=rf"pick '{pick}' .*n_nodes=1"):
            LockScenario(lock_kind="spinlock", n_nodes=1,
                         threads_per_node=2, pick=pick)

    @pytest.mark.parametrize("pick", ["single", "local"])
    def test_local_picks_build_at_one_node(self, pick):
        sc = LockScenario(lock_kind="spinlock", n_nodes=1,
                          threads_per_node=2, ops_per_thread=2, pick=pick)
        assert run_schedule(sc, None).ok

    def test_scenarios_are_hashable_recipes(self):
        a = LockScenario(seed=1, lock_options=(("bug", "lost_wakeup"),))
        b = LockScenario(seed=1, lock_options=(("bug", "lost_wakeup"),))
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("pick", ["single", "local", "remote", "mixed"])
    def test_every_picker_builds_and_runs(self, pick):
        sc = LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=1,
                          ops_per_thread=2, n_locks=4, pick=pick, seed=1)
        assert run_schedule(sc, None).ok

    def test_budgets_extracted_for_alock(self):
        run = LockScenario(lock_kind="alock", n_locks=2).build()
        assert run.budgets
        for home, local_b, remote_b in run.budgets.values():
            assert local_b >= 1 and remote_b >= 1

    def test_a_shrunken_fig5_cell_walks_clean(self):
        """A count-mode fig5 cell (seeded LockPicker, 90 % locality,
        guarded counter) walks as a scenario through the same spawn
        function, no hand-written picker needed.  At seed 4, three of its
        eight operations go to remote locks."""
        spec = WorkloadSpec(n_nodes=2, threads_per_node=2, n_locks=20,
                            locality_pct=90.0, ops_per_thread=2,
                            cs_counter=True, audit="record", seed=4)

        class Fig5Cell:
            def build(self):
                cluster, table = build_cluster(spec, obs=PROTOCOL,
                                               config=coarse_config())
                processes, _tally = spawn_clients(spec, cluster, table)
                return BuiltRun(
                    cluster=cluster, processes=processes, table=table,
                    expected_ops=8, deadline_ns=count_deadline_ns(8, 4, 0, 0),
                    budgets=lock_budgets(table))

        reports = [explore_random(Fig5Cell(), 20, seed=0, policy=policy)
                   for policy in ("random", "pct")]
        assert [(r.schedules_run, r.ok_count)
                for r in reports] == [(20, 20)] * 2
        assert all(r.distinct_executions > 1 for r in reports)

    def test_stagger_delays_later_clients(self):
        sc = LockScenario(lock_kind="spinlock", n_nodes=1,
                          threads_per_node=2, ops_per_thread=1,
                          stagger_ns=5_000.0, seed=0)
        base = LockScenario(**{**sc.__dict__, "stagger_ns": 0.0})
        assert run_schedule(sc, None).sim_time_ns > \
            run_schedule(base, None).sim_time_ns
