"""Tests for the distributed lock table."""

import pytest

from repro.cluster import Cluster
from repro.common.errors import ConfigError
from repro.locktable import DistributedLockTable


@pytest.fixture()
def cluster():
    return Cluster(4, seed=11)


class TestPartitioning:
    def test_striped_across_nodes(self, cluster):
        table = DistributedLockTable(cluster, 12, "alock")
        for i, entry in enumerate(table.entries):
            assert entry.home_node == i % 4

    def test_equal_partitions(self, cluster):
        table = DistributedLockTable(cluster, 100, "spinlock")
        sizes = [len(table.local_indices(n)) for n in range(4)]
        assert sizes == [25, 25, 25, 25]

    def test_local_and_remote_indices_partition_table(self, cluster):
        table = DistributedLockTable(cluster, 8, "alock")
        for node in range(4):
            local = set(table.local_indices(node))
            remote = set(table.remote_indices(node))
            assert local | remote == set(range(8))
            assert not local & remote

    def test_a_nodes_remote_indices_are_built_once(self, cluster):
        """240 clients asked for an O(n_locks) rebuild each; every
        thread of a node is handed the one list."""
        table = DistributedLockTable(cluster, 10, "alock")
        for node in range(4):
            remote = table.remote_indices(node)
            assert table.remote_indices(node) is remote
            assert remote == [i for i in range(10)
                              if table.entries[i].home_node != node]

    def test_too_few_locks_rejected(self, cluster):
        with pytest.raises(ConfigError):
            DistributedLockTable(cluster, 3, "alock")

    def test_lock_options_forwarded(self, cluster):
        table = DistributedLockTable(cluster, 4, "alock",
                                     lock_options={"remote_budget": 11})
        assert table.entry(0).lock.remote_budget == 11

    def test_counter_colocated_with_lock(self, cluster):
        from repro.memory.pointer import ptr_node

        table = DistributedLockTable(cluster, 8, "alock")
        for entry in table.entries:
            assert ptr_node(entry.counter_ptr) == entry.home_node


class TestGuardedCounter:
    def test_increments_under_lock(self, cluster):
        table = DistributedLockTable(cluster, 4, "alock")
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            for _ in range(5):
                yield from table.acquire(ctx, 0)
                yield from table.guarded_increment(ctx, 0)
                yield from table.release(ctx, 0)

        p = cluster.env.process(proc())
        cluster.run()
        assert p.ok, p.value
        assert table.counter_value(0) == 5
        table.check_counters(5)

    def test_remote_increment_path(self, cluster):
        table = DistributedLockTable(cluster, 4, "alock")
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from table.acquire(ctx, 1)  # lock homed on node 1
            yield from table.guarded_increment(ctx, 1)
            yield from table.release(ctx, 1)

        p = cluster.env.process(proc())
        cluster.run()
        assert p.ok, p.value
        assert table.counter_value(1) == 1

    def test_check_counters_detects_lost_update(self, cluster):
        table = DistributedLockTable(cluster, 4, "alock")
        with pytest.raises(AssertionError, match="lost updates"):
            table.check_counters(3)

    def test_total_acquisitions(self, cluster):
        table = DistributedLockTable(cluster, 4, "spinlock")
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            for i in range(4):
                yield from table.acquire(ctx, i)
                yield from table.release(ctx, i)

        p = cluster.env.process(proc())
        cluster.run()
        assert p.ok
        assert table.total_acquisitions() == 4


class TestUnguardedRace:
    def test_concurrent_unguarded_increments_lose_updates(self, cluster):
        """Sanity check that the witness has teeth: *without* a lock,
        concurrent read-modify-write on one counter loses updates."""
        table = DistributedLockTable(cluster, 4, "alock")

        def racer(node, tid):
            ctx = cluster.thread_ctx(node, tid)
            for _ in range(10):
                yield from table.guarded_increment(ctx, 0)

        procs = [cluster.env.process(racer(n, t))
                 for n in range(2) for t in range(2)]
        cluster.run()
        assert all(p.ok for p in procs)
        assert table.counter_value(0) < 40
