"""ALock edge cases: descriptor discipline, dual-cohort holding,
fine-grained Peterson interleavings, and trace output."""

import pytest

from repro.cluster import Cluster
from repro.common.errors import ProtocolError
from repro.locks import ALock
from repro.locks.layout import COHORT_LOCAL, COHORT_REMOTE
from repro.memory.pointer import ptr_addr
from repro.obs import PROTOCOL


@pytest.fixture()
def cluster():
    return Cluster(3, seed=21)


def drive(cluster, *gens):
    procs = [cluster.env.process(g) for g in gens]
    cluster.run()
    for p in procs:
        assert p.ok, p.value
    return procs


class TestDescriptorDiscipline:
    def test_can_hold_one_local_and_one_remote_lock(self, cluster):
        """A thread owns two descriptors — one per cohort flavor — so it
        may simultaneously hold one lock it is local to and one it is
        remote to (Algorithm 1 allocates exactly this pair)."""
        local_lock = ALock(cluster, 0, name="local")
        remote_lock = ALock(cluster, 1, name="remote")
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from local_lock.lock(ctx)
            yield from remote_lock.lock(ctx)
            assert local_lock.holder_gid == ctx.gid
            assert remote_lock.holder_gid == ctx.gid
            yield from remote_lock.unlock(ctx)
            yield from local_lock.unlock(ctx)

        drive(cluster, proc())
        cluster.auditor.assert_clean()

    def test_two_local_locks_simultaneously_rejected(self, cluster):
        """Two locks of the *same* cohort flavor need the same descriptor
        — the pool must refuse instead of corrupting a queue."""
        a = ALock(cluster, 0, name="a")
        b = ALock(cluster, 0, name="b")
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from a.lock(ctx)
            yield from b.lock(ctx)

        p = cluster.env.process(proc())
        cluster.run()
        assert not p.ok
        assert isinstance(p.value, ProtocolError)

    def test_two_remote_locks_simultaneously_rejected(self, cluster):
        a = ALock(cluster, 1, name="a")
        b = ALock(cluster, 2, name="b")
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from a.lock(ctx)
            yield from b.lock(ctx)

        p = cluster.env.process(proc())
        cluster.run()
        assert not p.ok
        assert isinstance(p.value, ProtocolError)

    def test_descriptor_released_after_unlock(self, cluster):
        from repro.locks.alock.descriptors import descriptor_pair

        lock = ALock(cluster, 0)
        ctx = cluster.thread_ctx(0, 0)
        local_desc, remote_desc = descriptor_pair(ctx)

        def proc():
            yield from lock.lock(ctx)
            assert local_desc.in_use
            yield from lock.unlock(ctx)
            assert not local_desc.in_use
            assert not remote_desc.in_use

        drive(cluster, proc())


class TestVictimSemantics:
    def test_local_leader_sets_victim_local(self, cluster):
        lock = ALock(cluster, 0)
        region = cluster.regions[0]
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from lock.lock(ctx)
            assert region.peek(ptr_addr(lock.victim_ptr)) == COHORT_LOCAL
            yield from lock.unlock(ctx)

        drive(cluster, proc())

    def test_remote_leader_sets_victim_remote(self, cluster):
        lock = ALock(cluster, 1)
        region = cluster.regions[1]
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from lock.lock(ctx)
            assert region.peek(ptr_addr(lock.victim_ptr)) == COHORT_REMOTE
            yield from lock.unlock(ctx)

        drive(cluster, proc())

    def test_victim_not_reset_on_unlock(self, cluster):
        """Peterson needs no victim reset on release — the tail going
        NULL is the release (flag semantics)."""
        lock = ALock(cluster, 0)
        region = cluster.regions[0]
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from lock.lock(ctx)
            yield from lock.unlock(ctx)

        drive(cluster, proc())
        assert region.peek(ptr_addr(lock.victim_ptr)) == COHORT_LOCAL
        assert not lock.is_locked()


class TestPetersonInterleavings:
    @pytest.mark.parametrize("stagger_ns", [0, 100, 500, 2_000, 5_000])
    def test_simultaneous_cross_cohort_arrivals(self, stagger_ns):
        """Sweep arrival offsets through the Peterson race window: for
        every interleaving exactly one thread wins first and both
        eventually complete."""
        cluster = Cluster(2, seed=5, audit="strict")
        lock = ALock(cluster, 1)
        spans = []

        def local_client():
            ctx = cluster.thread_ctx(1, 0)
            yield from lock.lock(ctx)
            start = cluster.env.now
            yield cluster.env.timeout(1_000)
            spans.append((start, cluster.env.now, "local"))
            yield from lock.unlock(ctx)

        def remote_client():
            ctx = cluster.thread_ctx(0, 0)
            yield cluster.env.timeout(stagger_ns)
            yield from lock.lock(ctx)
            start = cluster.env.now
            yield cluster.env.timeout(1_000)
            spans.append((start, cluster.env.now, "remote"))
            yield from lock.unlock(ctx)

        procs = [cluster.env.process(local_client()),
                 cluster.env.process(remote_client())]
        cluster.run()
        assert all(p.ok for p in procs), [p.value for p in procs]
        spans.sort()
        assert spans[1][0] >= spans[0][1], f"CS overlap: {spans}"
        cluster.auditor.assert_clean()

    def test_three_way_cross_cohort_storm(self):
        """Locals and remotes pounding one lock with tiny budgets: every
        acquisition returns, oracle and auditor stay clean."""
        cluster = Cluster(3, seed=9, audit="strict")
        lock = ALock(cluster, 0, local_budget=1, remote_budget=1)
        completed = []

        def client(node, tid, n_ops):
            ctx = cluster.thread_ctx(node, tid)
            for _ in range(n_ops):
                yield from lock.lock(ctx)
                yield from lock.unlock(ctx)
            completed.append((node, tid))

        procs = [cluster.env.process(client(0, 0, 20)),
                 cluster.env.process(client(0, 1, 20)),
                 cluster.env.process(client(1, 0, 10)),
                 cluster.env.process(client(2, 0, 10))]
        cluster.run()
        assert all(p.ok for p in procs)
        assert lock.acquisitions == 60
        assert lock.reacquires["local"] + lock.reacquires["remote"] > 0
        cluster.auditor.assert_clean()


class TestTraceOutput:
    def test_trace_records_protocol_events(self):
        cluster = Cluster(2, seed=1, obs=PROTOCOL)
        lock = ALock(cluster, 1)
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from lock.lock(ctx)
            yield from lock.unlock(ctx)

        p = cluster.env.process(proc())
        cluster.run()
        assert p.ok
        kinds = [ev.kind for ev in cluster.tracer]
        assert "mcs.swap" in kinds
        assert "peterson.enter" in kinds
        assert "cs.enter" in kinds
        assert "cs.exit" in kinds
        assert "mcs.release" in kinds

    def test_trace_disabled_records_nothing(self):
        cluster = Cluster(2, seed=1)
        lock = ALock(cluster, 1)
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from lock.lock(ctx)
            yield from lock.unlock(ctx)

        cluster.env.process(proc())
        cluster.run()
        assert len(cluster.tracer) == 0
