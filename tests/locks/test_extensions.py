"""Tests for the related-work lock alternatives (§1 / §7)."""

import pytest

from repro.cluster import Cluster
from repro.common.errors import ConfigError, ProtocolError
from repro.locks import (
    BakeryLock,
    FilterLock,
    MixedAtomicLock,
    RpcLock,
)
from repro.locks.extensions.coherent import cxl_config
from repro.locks.extensions.rpc_lock import RpcLockService

from tests.locks.helpers import mixed_locality, single_lock, stress


@pytest.fixture()
def cluster():
    return Cluster(3, seed=17)


def drive(cluster, *gens):
    procs = [cluster.env.process(g) for g in gens]
    cluster.run()
    for p in procs:
        assert p.ok, p.value
    return procs


def contend(cluster, lock, nodes, cs_ns=2_000):
    """Run one client per node, recording CS intervals."""
    intervals = []

    def client(node):
        ctx = cluster.thread_ctx(node, 0)
        yield from lock.lock(ctx)
        start = cluster.env.now
        yield cluster.env.timeout(cs_ns)
        intervals.append((start, cluster.env.now, node))
        yield from lock.unlock(ctx)

    drive(cluster, *(client(n) for n in nodes))
    intervals.sort()
    for (s1, e1, _), (s2, e2, _) in zip(intervals, intervals[1:]):
        assert s2 >= e1, f"critical sections overlap: {intervals}"
    return intervals


class TestFilterLock:
    def test_validation(self, cluster):
        with pytest.raises(ConfigError):
            FilterLock(cluster, 0, max_slots=1)

    def test_single_thread_acquire_release(self, cluster):
        lock = FilterLock(cluster, 1, max_slots=4)
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from lock.lock(ctx)
            yield from lock.unlock(ctx)

        drive(cluster, proc())
        assert lock.acquisitions == 1

    def test_mutual_exclusion_three_threads(self, cluster):
        lock = FilterLock(cluster, 0, max_slots=4)
        contend(cluster, lock, nodes=(0, 1, 2))

    def test_lone_thread_pays_for_absent_contenders(self, cluster):
        """The paper's complaint: remote ops proportional to n even when
        running alone — provisioning more slots costs more verbs."""
        def verbs_for(slots):
            c = Cluster(2, seed=1)
            lock = FilterLock(c, 1, max_slots=slots)
            ctx = c.thread_ctx(0, 0)

            def proc():
                yield from lock.lock(ctx)
                yield from lock.unlock(ctx)

            p = c.env.process(proc())
            c.run()
            assert p.ok, p.value
            return ctx.remote_op_count

        assert verbs_for(8) > 2 * verbs_for(3)
        # even the small config is far above ALock's 4 uncontended verbs
        assert verbs_for(3) > 4

    def test_slot_exhaustion(self, cluster):
        lock = FilterLock(cluster, 0, max_slots=2)

        def toucher(node, tid):
            ctx = cluster.thread_ctx(node, tid)
            yield from lock.lock(ctx)
            yield from lock.unlock(ctx)

        drive(cluster, toucher(0, 0), toucher(0, 1))
        p = cluster.env.process(toucher(1, 0))
        cluster.run()
        assert not p.ok
        assert isinstance(p.value, ConfigError)

    def test_unlock_without_holding(self, cluster):
        lock = FilterLock(cluster, 0)
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from lock.unlock(ctx)

        p = cluster.env.process(proc())
        cluster.run()
        assert not p.ok

    def test_stress_table(self):
        stress("filter", n_nodes=2, threads_per_node=2, n_locks=2,
               ops_per_thread=4, pick_lock=single_lock,
               lock_options={"max_slots": 4})


class TestBakeryLock:
    def test_validation(self, cluster):
        with pytest.raises(ConfigError):
            BakeryLock(cluster, 0, max_slots=1)

    def test_mutual_exclusion_three_threads(self, cluster):
        lock = BakeryLock(cluster, 0, max_slots=4)
        contend(cluster, lock, nodes=(0, 1, 2))

    def test_fifo_by_ticket_order(self, cluster):
        """The bakery's FCFS property: arrival order == entry order."""
        lock = BakeryLock(cluster, 2, max_slots=4)
        order = []

        def client(node, delay):
            ctx = cluster.thread_ctx(node, 0)
            yield cluster.env.timeout(delay)
            yield from lock.lock(ctx)
            order.append(node)
            yield cluster.env.timeout(30_000)
            yield from lock.unlock(ctx)

        drive(cluster, client(0, 0), client(1, 40_000), client(2, 80_000))
        assert order == [0, 1, 2]

    def test_ticket_counter(self, cluster):
        lock = BakeryLock(cluster, 0, max_slots=4)
        ctx = cluster.thread_ctx(1, 0)

        def proc():
            for _ in range(3):
                yield from lock.lock(ctx)
                yield from lock.unlock(ctx)

        drive(cluster, proc())
        assert lock.tickets_issued == 3

    def test_stress_table(self):
        stress("bakery", n_nodes=2, threads_per_node=2, n_locks=2,
               ops_per_thread=4, pick_lock=single_lock,
               lock_options={"max_slots": 4})


class TestRpcLock:
    def test_acquire_release(self, cluster):
        lock = RpcLock(cluster, 1)
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from lock.lock(ctx)
            assert lock.holder_gid == ctx.gid
            yield from lock.unlock(ctx)

        drive(cluster, proc())
        assert lock.holder_gid == 0

    def test_service_shared_across_locks(self, cluster):
        a = RpcLock(cluster, 0)
        b = RpcLock(cluster, 1)
        assert a.service is b.service
        assert a.lock_id != b.lock_id

    def test_fifo_grants_under_contention(self, cluster):
        lock = RpcLock(cluster, 2)
        order = []

        def client(node, delay):
            ctx = cluster.thread_ctx(node, 0)
            yield cluster.env.timeout(delay)
            yield from lock.lock(ctx)
            order.append(node)
            yield cluster.env.timeout(20_000)
            yield from lock.unlock(ctx)

        drive(cluster, client(0, 0), client(1, 5_000), client(2, 10_000))
        assert order == [0, 1, 2]
        assert lock.service.deferred_grants == 2

    def test_mutual_exclusion(self, cluster):
        lock = RpcLock(cluster, 0)
        contend(cluster, lock, nodes=(0, 1, 2))

    def test_local_client_skips_nic(self, cluster):
        lock = RpcLock(cluster, 1)
        ctx = cluster.thread_ctx(1, 0)  # co-located with the server

        def proc():
            yield from lock.lock(ctx)
            yield from lock.unlock(ctx)

        drive(cluster, proc())
        assert lock.service.transport.local_ipc_messages == 4  # 2 calls x 2 hops
        assert cluster.network.loopback_verbs == 0

    def test_no_table1_exposure(self, cluster):
        """RPC synchronization never touches shared memory directly, so
        the auditor has nothing to flag by construction."""
        lock = RpcLock(cluster, 0)
        contend(cluster, lock, nodes=(0, 1, 2))
        cluster.auditor.assert_clean()

    def test_stress_table(self):
        stress("rpc", n_nodes=3, threads_per_node=2, n_locks=3,
               ops_per_thread=6, pick_lock=mixed_locality)


class TestMixedAtomicLock:
    def test_correct_on_coherent_fabric(self):
        """Under the CXL config the remote RMW window is zero: the naive
        lock is sound and the auditor stays clean.  Its bookkeeping
        bypasses the base class (it is the overlap oracle), so check
        that the last release was recorded too."""
        cluster = Cluster(2, seed=3, config=cxl_config(), audit="strict")
        lock = MixedAtomicLock(cluster, 1)

        def client(node):
            ctx = cluster.thread_ctx(node, 0)
            for _ in range(50):
                yield from lock.lock(ctx)
                yield cluster.env.timeout(40)
                yield from lock.unlock(ctx)
                yield cluster.env.timeout(200)

        procs = [cluster.env.process(client(n)) for n in (0, 1)]
        cluster.run()
        assert all(p.ok for p in procs)
        assert lock.overlap_oracle == 0
        assert lock.holder_gid == 0
        cluster.auditor.assert_clean()

    def test_unsafe_on_rdma_fabric(self):
        """Under the default RDMA model the same lock races (auditor
        violations, and usually observable double-grants)."""
        cluster = Cluster(2, seed=7, audit="record")
        lock = MixedAtomicLock(cluster, 1)

        def client(node):
            ctx = cluster.thread_ctx(node, 0)
            # CS longer than the remote round trip so a double grant
            # (local CAS landing inside the rCAS window) is observable
            # as a temporal overlap, not just an auditor record.
            for _ in range(600):
                yield from lock.lock(ctx)
                yield cluster.env.timeout(2_000)
                yield from lock.unlock(ctx)
                yield cluster.env.timeout(500)

        procs = [cluster.env.process(client(n)) for n in (0, 1)]
        cluster.run()
        assert all(p.ok for p in procs)
        assert cluster.auditor.violation_count > 0
        assert lock.overlap_oracle > 0

    def test_cxl_local_op_still_fast(self):
        """On CXL, the naive lock's local path is a single CAS — in the
        same cost class as ALock's local fast path."""
        cluster = Cluster(2, config=cxl_config(), audit="off")
        lock = MixedAtomicLock(cluster, 0)
        ctx = cluster.thread_ctx(0, 0)
        env = cluster.env

        def proc():
            start = env.now
            yield from lock.lock(ctx)
            yield from lock.unlock(ctx)
            return env.now - start

        p = env.process(proc())
        cluster.run()
        assert p.value < 1_000
