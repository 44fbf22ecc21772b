"""Post-mortem engine tests: wait-for graph + cycle naming, snapshot
determinism, dump persistence, failure-site plumbing, and the ISSUE's
acceptance bar — each seeded lock bug's dump must name the faulty
client and the lock word it is stuck on."""

import json
import re

import pytest

from repro.cluster import Cluster
from repro.common.errors import SimulationError
from repro.lint import default_rules
from repro.locks import LOCK_TYPES, register_lock_type
from repro.locks.base import DistributedLock
from repro.memory.pointer import ptr_addr
from repro.obs.postmortem import (SCHEMA, attach, dump_json, maybe_write_dump,
                                  render_cycle, snapshot, wait_for_graph)
from repro.obs.report import render_report, suspect_rule
from repro.schedcheck.explore import explore_random
from repro.schedcheck.scenario import LockScenario
from repro.workload.runner import run_workload
from repro.workload.spec import WorkloadSpec

#: the PR's acceptance scenarios: seeded bug -> (scenario, faulty
#: clients the dump must name, lock-word substring it must blame)
SEEDED_BUGS = {
    "no_victim_check": (
        LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=2,
                     ops_per_thread=2, think_ns=200.0, seed=0,
                     lock_options=(("bug", "no_victim_check"),)),
        "alock[0]@n0."),
    "skip_budget_wait": (
        LockScenario(lock_kind="alock", n_nodes=1, threads_per_node=2,
                     ops_per_thread=4, think_ns=100.0, seed=2,
                     lock_options=(("bug", "skip_budget_wait"),)),
        "alock[0]@n0.budget"),
    "lost_wakeup": (
        LockScenario(lock_kind="mcs", n_nodes=1, threads_per_node=3,
                     ops_per_thread=3, seed=0,
                     lock_options=(("bug", "lost_wakeup"),
                                   ("poll_interval_ns", 200.0))),
        "mcs[0]@n0.locked"),
}


def first_failure_dump(name: str) -> dict:
    scenario, _ = SEEDED_BUGS[name]
    report = explore_random(scenario, 50, seed=1, stop_on_failure=True)
    failure = report.first_failure
    assert failure is not None, f"{name}: no failure in 50 schedules"
    assert failure.dump is not None, f"{name}: failure carried no dump"
    return json.loads(failure.dump)


class TestWaitForGraph:
    def test_cycle_detected_and_canonical(self):
        events = [
            (1.0, "A", "lock.wait", ("L1", "budget")),
            (2.0, "B", "lock.wait", ("L2", "next")),
        ]
        graph = wait_for_graph(events, {"L1": "B", "L2": "A"})
        assert graph["edges"] == [["A", "L1.budget"], ["B", "L2.next"],
                                  ["L1.budget", "B"], ["L2.next", "A"]]
        assert graph["cycles"] == [["A", "L1.budget", "B", "L2.next"]]
        assert render_cycle(graph["cycles"][0]) == \
            "A → L1.budget → B → L2.next → A"

    def test_acquired_discharges_the_wait(self):
        events = [
            (1.0, "A", "lock.wait", ("L1", "budget")),
            (2.0, "A", "lock.acquired", ("L1",)),
        ]
        graph = wait_for_graph(events, {"L1": "A"})
        assert graph == {"edges": [], "cycles": []}

    def test_acquired_on_other_lock_does_not_discharge(self):
        events = [
            (1.0, "A", "lock.wait", ("L1", "budget")),
            (2.0, "A", "lock.acquired", ("L2",)),
        ]
        graph = wait_for_graph(events, {"L1": None, "L2": "A"})
        assert graph["edges"] == [["A", "L1.budget"]]

    def test_an_alock_swap_opens_the_wait_its_outcome_decides(self):
        """An ALock swap reports the wait it opens: a leader's (previous
        tail 0) in Peterson's algorithm, a follower's on its budget."""
        events = [
            (1.0, "A", "mcs.swap", ("L1", "local", 0, "desc[A:local]")),
            (2.0, "B", "mcs.swap", ("L1", "remote", 0, "desc[B:remote]")),
            (3.0, "C", "mcs.swap", ("L1", "local", 0x40, "desc[C:local]")),
        ]
        graph = wait_for_graph(events, {"L1": None})
        assert graph["edges"] == [["A", "L1.peterson-local"],
                                  ["B", "L1.peterson-remote"],
                                  ["C", "L1.budget"]]

    def test_no_self_edge_for_own_lock(self):
        events = [(1.0, "A", "lock.wait", ("L1", "next"))]
        graph = wait_for_graph(events, {"L1": "A"})
        assert graph["edges"] == [["A", "L1.next"]]
        assert graph["cycles"] == []


class TestSeededBugAcceptance:
    """The dump of each seeded bug names the stuck clients and the lock
    word they are parked on — the bar from the ISSUE."""

    @pytest.mark.parametrize("bug", sorted(SEEDED_BUGS))
    def test_dump_names_client_and_lock_word(self, bug):
        scenario, word = SEEDED_BUGS[bug]
        dump = first_failure_dump(bug)
        assert dump["schema"] == SCHEMA
        # the faulty clients appear in the parked-process table...
        parked = {p["name"] for p in dump["processes"]}
        assert any(name.startswith("client-n") for name in parked), parked
        # ...and the wait-for graph blames a word of the bugged lock
        edges = dump["wait_for"]["edges"]
        assert any(dst.startswith(word) for _src, dst in edges), (word, edges)
        # every waiting edge source is an actor the last-action table knows
        actors = set(dump["last_action"])
        assert {src for src, _ in edges if "@" in src} <= actors
        # the rendered report names the same word
        assert word.split(".")[0] in render_report(dump)

    def test_replayable_decisions_stored(self):
        dump = first_failure_dump("lost_wakeup")
        assert dump["sched"]["decision_count"] >= 0
        assert isinstance(dump["sched"]["decisions"], str)

    def test_suspect_rule_cites_only_listed_rules(self):
        """Every branch names a failure shape and cites only rules that
        ``python -m repro.lint --list-rules`` prints — not the analyses
        the kill matrix deleted."""
        ids = {rule.rule_id for rule in default_rules()}
        wait = [0.0, "t0@n0", "lock.wait", ["alock[0]@n0", "budget"]]
        drop = [0.0, "t0@n0", "fault.drop", []]
        dumps = [{"reason": reason} for reason in
                 ("lease-expiry", "checker", "exception", "deadlock", "stall", "")]
        dumps += [{"reason": "stall", "events": [wait]},
                  {"reason": "deadlock", "events": [drop]}]
        shapes = [suspect_rule(dump) for dump in dumps]
        assert len(set(shapes)) == len(shapes) == 8     # one per branch
        for shape in shapes:
            assert not re.search(r"\b[PB]\d\b", shape), shape
            assert set(re.findall(r"\(([a-z]+-[a-z]+)\)", shape)) <= ids, shape
        assert suspect_rule(first_failure_dump("skip_budget_wait")) == shapes[6]
        assert "(region-bypass)" in suspect_rule(first_failure_dump("lost_wakeup"))


class TestSnapshotDeterminism:
    def test_same_seed_same_schedule_byte_identical(self):
        a = first_failure_dump("lost_wakeup")
        b = first_failure_dump("lost_wakeup")
        assert dump_json(a) == dump_json(b)


class TestDumpPersistence:
    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv("ALOCK_POSTMORTEM_DIR", raising=False)
        assert maybe_write_dump('{"x":1}', "deadlock") is None

    def test_writes_content_addressed_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ALOCK_POSTMORTEM_DIR", str(tmp_path))
        path = maybe_write_dump('{"x":1}', "deadlock")
        assert path is not None
        (written,) = tmp_path.iterdir()
        assert written.name.startswith("postmortem-deadlock-")
        assert written.read_text() == '{"x":1}'
        # same dump twice: same name, still exactly one file
        maybe_write_dump('{"x":1}', "deadlock")
        assert len(list(tmp_path.iterdir())) == 1


class TestAttach:
    def test_attach_hangs_dump_on_exception(self):
        cluster = Cluster(1, audit="off")
        exc = attach(SimulationError("boom"), cluster,
                     reason="deadlock", detail="d")
        assert exc._postmortem is not None
        dump = json.loads(exc._postmortem)
        assert (dump["reason"], dump["detail"]) == ("deadlock", "d")


# -- runner integration: a deterministically deadlocking lock ------------

class HangLock(DistributedLock):
    """Parks every acquirer on a word nobody ever writes."""

    kind = "hang"

    def __init__(self, cluster, home_node, name=""):
        super().__init__(cluster, home_node, name)
        region = cluster.regions[home_node]
        self._ptr = region.alloc_ptr(8)
        region.label_word(ptr_addr(self._ptr), f"{self.name}.never")

    def lock(self, ctx):
        ctx.emit(ctx.actor, "lock.wait", self.name, "never")
        yield from ctx.wait_local(self._ptr, lambda v: v == 1)
        self._note_acquired(ctx)  # pragma: no cover

    def unlock(self, ctx):  # pragma: no cover - never reached
        self._note_released(ctx)
        yield ctx.fence()


@pytest.fixture
def hang_lock_kind():
    register_lock_type("hang", HangLock)
    yield "hang"
    del LOCK_TYPES["hang"]


class TestRunnerDeadlockPostmortem:
    def test_deadlock_error_names_the_word_and_carries_a_dump(
            self, hang_lock_kind):
        spec = WorkloadSpec(n_nodes=1, threads_per_node=2, n_locks=1,
                            ops_per_thread=1, lock_kind=hang_lock_kind,
                            audit="off")
        with pytest.raises(SimulationError) as err:
            run_workload(spec)
        # satellite 1: the error itself names the watched word per client
        assert "2/2 clients parked with an empty schedule" in str(err.value)
        assert "hang[0]@n0.never" in str(err.value)
        # the tentpole: the exception carries the full post-mortem
        dump = json.loads(err.value._postmortem)
        assert dump["reason"] == "deadlock"
        waiting = {p["name"]: p["waiting_on"] for p in dump["processes"]}
        assert len(waiting) == 2
        assert all("hang[0]@n0.never" in w for w in waiting.values())
        assert [s for s, _d in dump["wait_for"]["edges"]] == \
            ["t0@n0", "t1@n0"]
