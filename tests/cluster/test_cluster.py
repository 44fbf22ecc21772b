"""Tests for Cluster and ThreadContext."""

import pytest

from repro.cluster import Cluster
from repro.common.errors import ConfigError, MemoryError_, SimulationError
from repro.memory.pointer import MAX_NODES, pack_ptr, ptr_addr, ptr_node
from repro.obs import INTERVALS, RING
from repro.workload import WorkloadSpec
from repro.workload.runner import build_cluster


@pytest.fixture()
def cluster():
    return Cluster(3, seed=7)


def drive(cluster, gen):
    p = cluster.env.process(gen)
    cluster.run()
    assert p.ok, p.value
    return p.value


class TestConstruction:
    def test_node_count(self, cluster):
        assert cluster.n_nodes == 3
        assert len(cluster.regions) == 3
        assert len(cluster.network.nics) == 3

    def test_node_count_bounds(self):
        with pytest.raises(ConfigError):
            Cluster(0)
        with pytest.raises(ConfigError):
            Cluster(MAX_NODES + 1)

    def test_max_nodes_constructible(self):
        assert Cluster(MAX_NODES).n_nodes == MAX_NODES

    def test_alloc_on_packs_node(self, cluster):
        ptr = cluster.alloc_on(2, 64)
        assert ptr_node(ptr) == 2

    def test_thread_ctx_cached(self, cluster):
        assert cluster.thread_ctx(0, 1) is cluster.thread_ctx(0, 1)
        assert cluster.thread_ctx(0, 1) is not cluster.thread_ctx(1, 1)

    def test_thread_ctx_bad_node(self, cluster):
        with pytest.raises(ConfigError):
            cluster.thread_ctx(9, 0)

    def test_distinct_gids(self, cluster):
        gids = {cluster.thread_ctx(n, t).gid for n in range(3) for t in range(4)}
        assert len(gids) == 12
        assert 0 not in gids  # 0 is reserved for "no owner"


class TestLocalOps:
    def test_read_write_round_trip(self, cluster):
        ctx = cluster.thread_ctx(1, 0)
        ptr = cluster.alloc_on(1, 64)

        def proc():
            yield from ctx.write(ptr, 42)
            return (yield from ctx.read(ptr))

        assert drive(cluster, proc()) == 42

    def test_local_ops_cost_cpu_time(self, cluster):
        ctx = cluster.thread_ctx(0, 0)
        ptr = cluster.alloc_on(0, 64)

        def proc():
            t0 = cluster.env.now
            yield from ctx.write(ptr, 1)
            yield from ctx.read(ptr)
            yield from ctx.cas(ptr, 1, 2)
            yield ctx.fence()
            return cluster.env.now - t0

        cpu = cluster.config.cpu
        expected = (cpu.local_write_ns + cpu.local_read_ns
                    + cpu.local_cas_ns + cpu.fence_ns)
        assert drive(cluster, proc()) == pytest.approx(expected)

    def test_a_fence_is_a_delay_the_caller_sleeps(self, cluster):
        """``ctx.fence()`` applies nothing, so it returns its cost:
        ``yield ctx.fence()`` is one dispatch, and the generator
        spelling fails loudly instead of silently costing nothing."""
        ctx = cluster.thread_ctx(0, 0)
        assert ctx.fence() == cluster.config.cpu.fence_ns

        def proc():
            yield ctx.fence()

        drive(cluster, proc())
        # boot, the fence's sleep, the finished process's own event
        assert cluster.env.event_count == 3
        assert cluster.env.now == cluster.config.cpu.fence_ns

        def old_spelling():
            yield from ctx.fence()

        p = cluster.env.process(old_spelling())
        cluster.run()
        assert not p.ok and isinstance(p.value, TypeError)

    def test_local_op_on_remote_memory_rejected(self, cluster):
        """Definition 4.1: shared-memory ops only touch the own node."""
        ctx = cluster.thread_ctx(0, 0)
        remote_ptr = cluster.alloc_on(1, 64)

        def proc():
            yield from ctx.read(remote_ptr)

        p = cluster.env.process(proc())
        cluster.run()
        assert not p.ok
        assert isinstance(p.value, MemoryError_)

    def test_signed_local_ops(self, cluster):
        ctx = cluster.thread_ctx(0, 0)
        ptr = cluster.alloc_on(0, 64)

        def proc():
            yield from ctx.write(ptr, -1)
            v = yield from ctx.read(ptr, signed=True)
            old = yield from ctx.cas(ptr, -1, 5, signed=True)
            return v, old

        assert drive(cluster, proc()) == (-1, -1)

    def test_faa_local(self, cluster):
        ctx = cluster.thread_ctx(0, 0)
        ptr = cluster.alloc_on(0, 64)

        def proc():
            yield from ctx.write(ptr, 10)
            old = yield from ctx.faa(ptr, 5, signed=True)
            now = yield from ctx.read(ptr, signed=True)
            return old, now

        assert drive(cluster, proc()) == (10, 15)


class TestRemoteOps:
    def test_r_write_visible_to_local_reader(self, cluster):
        writer = cluster.thread_ctx(0, 0)
        reader = cluster.thread_ctx(2, 0)
        ptr = cluster.alloc_on(2, 64)

        def proc():
            yield from writer.r_write(ptr, 77)
            return (yield from reader.read(ptr))

        assert drive(cluster, proc()) == 77

    def test_remote_much_slower_than_local(self, cluster):
        """The paper's operation asymmetry: remote ~20x local."""
        ctx = cluster.thread_ctx(0, 0)
        local_ptr = cluster.alloc_on(0, 64)
        remote_ptr = cluster.alloc_on(1, 64)
        times = {}

        def proc():
            yield from ctx.r_read(remote_ptr)  # warm QP
            t0 = cluster.env.now
            yield from ctx.read(local_ptr)
            times["local"] = cluster.env.now - t0
            t1 = cluster.env.now
            yield from ctx.r_read(remote_ptr)
            times["remote"] = cluster.env.now - t1

        drive(cluster, proc())
        assert times["remote"] >= 10 * times["local"]

    def test_op_counters(self, cluster):
        ctx = cluster.thread_ctx(0, 0)
        lp = cluster.alloc_on(0, 64)
        rp = cluster.alloc_on(1, 64)

        def proc():
            yield from ctx.read(lp)
            yield from ctx.r_read(rp)
            yield from ctx.r_cas(rp, 0, 1)

        drive(cluster, proc())
        assert ctx.local_op_count == 1
        assert ctx.remote_op_count == 2


class TestWaitLocal:
    def test_returns_immediately_if_satisfied(self, cluster):
        ctx = cluster.thread_ctx(0, 0)
        ptr = cluster.alloc_on(0, 64)

        def proc():
            yield from ctx.write(ptr, 3)
            v = yield from ctx.wait_local(ptr, lambda x: x == 3)
            return v

        assert drive(cluster, proc()) == 3
        # the read succeeded, so no watcher was registered: the word's
        # next write wakes nobody
        assert cluster.regions[0].watcher_count() == 0

    def test_a_write_during_the_reads_sleep_is_seen_by_that_read(self, cluster):
        """The read applies when its sleep ends: a write landing inside
        the sleep is what it reads, and no watcher is ever registered."""
        ctx, other = cluster.thread_ctx(0, 0), cluster.thread_ctx(0, 1)
        ptr = cluster.alloc_on(0, 64)
        region = cluster.regions[0]
        out = {}

        def waiter():
            yield 40.0
            out["v"] = yield from ctx.wait_local(ptr, lambda v: v == 1)
            out["t"] = cluster.env.now

        def writer():
            yield 10.0
            yield from other.write(ptr, 1)  # lands at 70, read 40-95

        cluster.env.process(waiter())
        cluster.env.process(writer())
        cluster.run()
        assert out == {"v": 1, "t": 95.0}
        assert ctx.local_op_count == 1 and region.watcher_count() == 0

    def test_a_write_at_the_instant_after_a_failed_read_wakes_the_waiter(
            self, cluster):
        """The watcher is registered in the dispatch of the failed read,
        so a write dispatched right after it at the same instant fires
        it: the waiter re-checks and returns instead of parking forever."""
        ctx = cluster.thread_ctx(0, 0)
        ptr = cluster.alloc_on(0, 64)
        region = cluster.regions[0]
        read_ns = cluster.config.cpu.local_read_ns
        out = {}

        def waiter():  # booted first: its read is due first at read_ns
            out["v"] = yield from ctx.wait_local(ptr, lambda v: v == 1)
            out["t"] = cluster.env.now

        def writer():
            yield read_ns
            region.write(ptr_addr(ptr), 1, "writer")

        cluster.env.process(waiter())
        cluster.env.process(writer())
        cluster.run()
        cpu = cluster.config.cpu
        assert out == {"v": 1, "t": 2 * read_ns + cpu.spin_recheck_ns}
        assert ctx.local_op_count == 2 and region.watcher_count() == 0

    def test_a_write_to_an_earlier_clause_between_the_reads_wakes_the_waiter(
            self, cluster):
        """Clause 1 fails at 95 ns; clause 1's word is cleared at 110 ns,
        while clause 2 is being read.  The watcher registered at the
        first failed read fires, so the waiter re-checks and finds clause
        1 true.  A watcher registered after the whole round (at 150 ns)
        would have missed the write and parked for good."""
        ctx, other = cluster.thread_ctx(0, 0), cluster.thread_ctx(0, 1)
        a, b = cluster.alloc_on(0, 64), cluster.alloc_on(0, 64)
        region = cluster.regions[0]
        region.write(ptr_addr(a), 1)
        region.write(ptr_addr(b), 1)
        out = {}

        def waiter():
            yield 40.0
            out["why"] = yield from ctx.wait_local_cond(
                [a, b], ((a, lambda v: v == 0, "a-clear"),
                         (b, lambda v: v != 1, "b-changed")))
            out["t"] = cluster.env.now

        def writer():
            yield 50.0
            yield from other.write(a, 0)  # lands at 110

        cluster.env.process(waiter())
        cluster.env.process(writer())
        cluster.run()
        # 150: round 1 ends parked-on-a-fired-watcher; +40 recheck, +55 read a
        assert out == {"why": "a-clear", "t": 245.0}
        assert ctx.local_op_count == 3

    def test_a_satisfied_compound_wait_leaves_no_watcher(self, cluster):
        """First clause true: one charged read, the second word never
        read, the clause's ``why`` returned, the watcher withdrawn."""
        ctx = cluster.thread_ctx(0, 0)
        a, b = cluster.alloc_on(0, 64), cluster.alloc_on(0, 64)
        region = cluster.regions[0]

        def proc():
            return (yield from ctx.wait_local_cond(
                [a, b], ((a, lambda v: v == 0, "a-clear"),
                         (b, lambda v: pytest.fail("b was read"), "b"))))

        assert drive(cluster, proc()) == "a-clear"
        assert ctx.local_op_count == 1 and region.local_reads == 1
        assert cluster.env.now == cluster.config.cpu.local_read_ns
        assert region.watcher_count() == 0

    @pytest.mark.parametrize("lands_at,value,expected", [
        # (why, finished at, charged reads, dispatches, watchers left).
        # The 110 ns rows are what the pre-clause ``check`` generator
        # form produced for the same writes: the write lands after the
        # first failed read, which registered the watcher, so it fires
        # it — a satisfying write is seen by the same round (2 reads),
        # an idle one buys a second full round before parking (2 + 2,
        # then 1 in the round ``a`` ends).  A write during read 1 lands
        # before any watcher exists: it is simply read (b-changed with
        # no watcher fired, one dispatch fewer), and an idle one no
        # longer buys the extra round (2, then 1).
        (60.0, 2, ("b-changed", 150.0, 2, 11, 0)),    # during read 1
        (60.0, 1, ("a-clear", 1215.0, 3, 14, 1)),
        (110.0, 2, ("b-changed", 150.0, 2, 12, 0)),   # between the reads
        (110.0, 1, ("a-clear", 1265.0, 5, 18, 1)),
    ])
    def test_a_write_during_a_round_wakes_as_the_check_form_did(
            self, cluster, lands_at, value, expected):
        """The waiter's first round reads ``a`` over 40–95 ns and ``b``
        over 95–150 ns; a write of ``value`` to ``b`` lands at
        ``lands_at`` and ``a`` is cleared 1 060 ns later."""
        ctx, other = cluster.thread_ctx(0, 0), cluster.thread_ctx(0, 1)
        a, b = cluster.alloc_on(0, 64), cluster.alloc_on(0, 64)
        region = cluster.regions[0]
        region.write(ptr_addr(a), 1)
        region.write(ptr_addr(b), 1)
        out = {}

        def waiter():
            yield 40.0
            before = ctx.local_op_count
            out["why"] = yield from ctx.wait_local_cond(
                [a, b], ((a, lambda v: v == 0, "a-clear"),
                         (b, lambda v: v != 1, "b-changed")))
            out["reads"] = ctx.local_op_count - before
            out["t"] = cluster.env.now

        def writer():
            yield lands_at - cluster.config.cpu.local_write_ns
            yield from other.write(b, value)
            yield 1000.0
            yield from other.write(a, 0)

        cluster.env.process(waiter())
        cluster.env.process(writer())
        cluster.run()
        assert (out["why"], out["t"], out["reads"], cluster.env.event_count,
                region.watcher_count()) == expected

    def test_a_compound_wait_clause_on_remote_memory_is_rejected(self, cluster):
        ctx = cluster.thread_ctx(0, 0)
        a, far = cluster.alloc_on(0, 64), cluster.alloc_on(1, 64)

        def proc():
            yield from ctx.wait_local_cond(
                [a], ((a, lambda v: v != 0, "a"), (far, lambda v: True, "far")))

        p = cluster.env.process(proc())
        cluster.run()
        assert not p.ok and isinstance(p.value, MemoryError_)

    def test_wakes_on_remote_write(self, cluster):
        """The MCS handoff path: a remote rWrite wakes the local spinner."""
        spinner = cluster.thread_ctx(1, 0)
        remote = cluster.thread_ctx(0, 0)
        ptr = cluster.alloc_on(1, 64)
        got = {}

        def spin():
            v = yield from spinner.wait_local(ptr, lambda x: x != 0)
            got["v"] = v
            got["t"] = cluster.env.now

        def write():
            yield cluster.env.timeout(500)
            yield from remote.r_write(ptr, 9)

        cluster.env.process(spin())
        cluster.env.process(write())
        cluster.run()
        assert got["v"] == 9
        assert got["t"] > 500

    def test_signed_predicate(self, cluster):
        """The descriptor budget spin: wait until budget != -1."""
        ctx = cluster.thread_ctx(0, 0)
        other = cluster.thread_ctx(0, 1)
        ptr = cluster.alloc_on(0, 64)
        got = {}

        def spin():
            yield from ctx.write(ptr, -1)
            v = yield from ctx.wait_local(ptr, lambda b: b != -1, signed=True)
            got["v"] = v

        def release():
            yield cluster.env.timeout(1000)
            yield from other.write(ptr, 5)

        cluster.env.process(spin())
        cluster.env.process(release())
        cluster.run()
        assert got["v"] == 5

    def test_skips_non_matching_writes(self, cluster):
        ctx = cluster.thread_ctx(0, 0)
        other = cluster.thread_ctx(0, 1)
        ptr = cluster.alloc_on(0, 64)
        got = {}

        def spin():
            v = yield from ctx.wait_local(ptr, lambda x: x >= 3)
            got["v"] = v

        def writes():
            for v in (1, 2, 3):
                yield cluster.env.timeout(100)
                yield from other.write(ptr, v)

        cluster.env.process(spin())
        cluster.env.process(writes())
        cluster.run()
        assert got["v"] == 3


class TestLocality:
    def test_is_local(self, cluster):
        ctx = cluster.thread_ctx(1, 0)
        assert ctx.is_local(pack_ptr(1, 64))
        assert not ctx.is_local(pack_ptr(0, 64))

    def test_stats_shape(self, cluster):
        s = cluster.stats()
        assert set(s) == {"network", "memory", "atomicity_violations"}
        assert len(s["memory"]) == 3


class TestClose:
    """``Cluster.close()`` ends a run without changing anything a reader
    of the finished run sees."""

    @staticmethod
    def contended_mcs(obs):
        """A 3x4 MCS duration run on three locks, stopped at 40 µs: every
        NIC then holds a verb inside RX and queues a grant behind it, and
        every client is parked mid-acquisition."""
        spec = WorkloadSpec(n_nodes=3, threads_per_node=4, n_locks=3,
                            locality_pct=50.0, lock_kind="mcs",
                            ops_per_thread=0, warmup_ns=0.0,
                            measure_ns=40_000.0, seed=2)
        cluster, table = build_cluster(spec, obs=obs)
        locks = [entry.lock for entry in table.entries]

        def client(ctx, i):
            while True:
                lock = locks[i % len(locks)]
                i += 1
                yield from lock.lock(ctx)
                yield from lock.unlock(ctx)

        for node in range(3):
            for thread in range(4):
                cluster.env.process(
                    client(cluster.thread_ctx(node, thread), node + thread))
        cluster.run(until=spec.measure_ns)
        assert all(nic.rx.in_use and nic.rx.queue_length
                   for nic in cluster.network.nics)
        return cluster

    @staticmethod
    def readers(cluster):
        nics = cluster.network.nics
        return {
            "stats": cluster.stats(),
            "metrics": cluster.obs.metrics.collect(),
            "log": list(cluster.log),
            "trace": list(cluster.tracer),
            "events": cluster.env.event_count,
            "stages": [(stage.total_served, stage.utilization())
                       for nic in nics for stage in (nic.tx, nic.rx, nic.pcie)],
            "peak_queue": [nic.rx.peak_queue for nic in nics],
        }

    @pytest.mark.parametrize("obs", [RING, INTERVALS])
    def test_close_is_invisible_to_readers(self, obs):
        cluster = self.contended_mcs(obs)
        before = self.readers(cluster)
        if obs == INTERVALS:
            # lock intervals are open: finalizing them must end none
            kinds = [kind for _t, _actor, kind, _fields in before["log"]]
            assert kinds.count("span.begin") > kinds.count("span.end")
        cluster.close()
        assert self.readers(cluster) == before

    def test_a_second_close_is_a_no_op_and_a_closed_run_raises(self):
        cluster = self.contended_mcs(RING)
        cluster.close()
        after = self.readers(cluster)
        cluster.close()
        assert self.readers(cluster) == after
        with pytest.raises(SimulationError, match="closed environment"):
            cluster.run(until=50_000.0)
        with pytest.raises(SimulationError):
            cluster.env.step()
