"""Executable checks of the docs/tutorial.md flows.

The tutorial promises that a user-defined lock registered via
``register_lock_type`` becomes a first-class citizen of the lock table,
workload runner, and witnesses.  This test implements the tutorial's
TAS lock verbatim (modulo a unique registry name) and holds the library
to that promise.
"""

import pytest

from repro.cluster import Cluster
from repro.locks.base import LOCK_TYPES, DistributedLock, register_lock_type
from repro.locks.layout import SPINLOCK_LAYOUT
from repro.workload import FairnessReport, WorkloadSpec, run_workload


class TutorialTasLock(DistributedLock):
    """The tutorial's minimal test-and-set lock."""

    kind = "tutorial-tas"

    def __init__(self, cluster, home_node, name=""):
        super().__init__(cluster, home_node, name)
        self.word = cluster.alloc_on(home_node, SPINLOCK_LAYOUT.size)

    def lock(self, ctx):
        while (yield from ctx.r_cas(self.word, 0, ctx.gid)) != 0:
            pass
        self._note_acquired(ctx)

    def unlock(self, ctx):
        self._note_released(ctx)
        yield from ctx.r_write(self.word, 0)


@pytest.fixture
def tutorial_tas():
    """The tutorial's lock, registered for the test and removed after."""
    register_lock_type(
        "tutorial-tas",
        lambda cluster, home_node, **kw: TutorialTasLock(cluster, home_node, **kw))
    yield "tutorial-tas"
    del LOCK_TYPES["tutorial-tas"]


class TestTutorialCustomLock:
    def test_direct_use(self):
        cluster = Cluster(2, audit="strict")
        lock = TutorialTasLock(cluster, 1)
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from lock.lock(ctx)
            yield from lock.unlock(ctx)

        p = cluster.env.process(proc())
        cluster.run()
        assert p.ok, p.value
        assert lock.acquisitions == 1
        cluster.auditor.assert_clean()

    def test_first_class_in_workload_runner(self, tutorial_tas):
        result = run_workload(WorkloadSpec(
            n_nodes=2, threads_per_node=2, n_locks=6, locality_pct=90.0,
            lock_kind=tutorial_tas, ops_per_thread=8, cs_counter=True,
            audit="record"))
        assert result.completed_ops == 32
        assert result.atomicity_violations == 0
        report = FairnessReport.from_per_thread_ops(result.per_thread_ops)
        assert report.jain == pytest.approx(1.0)

    def test_tutorial_spinner_flow(self):
        """The watcher example from §2 of the tutorial."""
        cluster = Cluster(n_nodes=2)
        ptr = cluster.alloc_on(0, 64)
        ctx0 = cluster.thread_ctx(0, 0)
        ctx1 = cluster.thread_ctx(1, 0)
        got = {}

        def spinner():
            got["value"] = yield from ctx0.wait_local(ptr, lambda v: v == 7)
            got["time"] = cluster.env.now

        def writer():
            yield cluster.env.timeout(1_000)
            yield from ctx1.r_write(ptr, 7)

        cluster.env.process(spinner())
        cluster.env.process(writer())
        cluster.run()
        assert got["value"] == 7
        assert got["time"] > 1_000
