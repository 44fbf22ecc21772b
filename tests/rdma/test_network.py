"""Tests for the verbs layer: semantics, latency calibration, loopback,
congestion, QPC thrashing, and Table-1 non-atomicity."""

import pytest

from repro.common.errors import MemoryError_
from repro.memory import MemoryRegion, RaceAuditor, pack_ptr
from repro.rdma import RdmaConfig, RdmaNetwork
from repro.rdma.config import unloaded_remote_read_ns
from repro.sim import Environment


def make_net(n_nodes=2, auditor=None, config=None, region_size=1 << 16):
    env = Environment()
    cfg = config or RdmaConfig()
    regions = [MemoryRegion(env, i, region_size, auditor=auditor)
               for i in range(n_nodes)]
    net = RdmaNetwork(env, cfg, regions, auditor=auditor)
    return env, net, regions


def run_verb(env, gen):
    p = env.process(gen)
    env.run()
    assert p.ok, p.value
    return p.value


class TestVerbSemantics:
    def test_r_write_then_r_read(self):
        env, net, regions = make_net()
        ptr = pack_ptr(1, 64)

        def proc():
            yield from net.r_write(0, 0, ptr, 1234)
            v = yield from net.r_read(0, 0, ptr)
            return v

        assert run_verb(env, proc()) == 1234
        assert regions[1].peek(64) == 1234

    def test_r_cas_success(self):
        env, net, regions = make_net()
        ptr = pack_ptr(1, 64)
        regions[1].remote_write(64, 5)

        def proc():
            old = yield from net.r_cas(0, 0, ptr, 5, 9)
            return old

        assert run_verb(env, proc()) == 5
        assert regions[1].peek(64) == 9

    def test_r_cas_failure_no_write(self):
        env, net, regions = make_net()
        ptr = pack_ptr(1, 64)
        regions[1].remote_write(64, 5)

        def proc():
            return (yield from net.r_cas(0, 0, ptr, 7, 9))

        assert run_verb(env, proc()) == 5
        assert regions[1].peek(64) == 5

    def test_r_cas_signed_values(self):
        env, net, regions = make_net()
        ptr = pack_ptr(1, 64)
        regions[1].write(64, -1)

        def proc():
            return (yield from net.r_cas(0, 0, ptr, -1, 0, signed=True))

        assert run_verb(env, proc()) == -1
        assert regions[1].peek(64) == 0

    def test_r_faa(self):
        env, net, regions = make_net()
        ptr = pack_ptr(1, 64)
        regions[1].remote_write(64, 10)

        def proc():
            return (yield from net.r_faa(0, 0, ptr, -4, signed=True))

        assert run_verb(env, proc()) == 10
        assert regions[1].peek_signed(64) == 6

    def test_bad_node_pointer(self):
        env, net, _ = make_net(n_nodes=2)
        ptr = pack_ptr(5, 64)  # node 5 does not exist

        def proc():
            yield from net.r_read(0, 0, ptr)

        p = env.process(proc())
        env.run()
        assert not p.ok
        assert isinstance(p.value, MemoryError_)

    def test_verb_counters(self):
        env, net, _ = make_net()
        ptr = pack_ptr(1, 64)

        def proc():
            yield from net.r_write(0, 0, ptr, 1)
            yield from net.r_read(0, 0, ptr)
            yield from net.r_cas(0, 0, ptr, 1, 2)
            yield from net.r_faa(0, 0, ptr, 1)

        run_verb(env, proc())
        assert net.verb_counts == {"rRead": 1, "rWrite": 1, "rCAS": 1, "rFAA": 1}


class TestLatencyCalibration:
    def test_unloaded_remote_read_matches_model(self):
        env, net, _ = make_net()
        ptr = pack_ptr(1, 64)

        def proc():
            yield from net.r_read(0, 0, ptr)  # warm the QP context
            t0 = env.now
            yield from net.r_read(0, 0, ptr)
            return env.now - t0

        latency = run_verb(env, proc())
        assert latency == pytest.approx(unloaded_remote_read_ns(RdmaConfig()))

    def test_remote_op_in_realistic_microsecond_range(self):
        """CX-3-era one-sided verbs are ~1.5-3 us unloaded."""
        env, net, _ = make_net()
        ptr = pack_ptr(1, 64)

        def proc():
            t0 = env.now
            yield from net.r_cas(0, 0, ptr, 0, 1)
            return env.now - t0

        latency = run_verb(env, proc())
        assert 1000 <= latency <= 4000

    def test_loopback_cheaper_than_remote_but_far_above_local(self):
        env, net, _ = make_net()
        remote_ptr = pack_ptr(1, 64)
        local_ptr = pack_ptr(0, 64)
        times = {}

        def proc():
            t0 = env.now
            yield from net.r_read(0, 0, remote_ptr)
            times["remote"] = env.now - t0
            t1 = env.now
            yield from net.r_read(0, 0, local_ptr)
            times["loopback"] = env.now - t1

        run_verb(env, proc())
        assert times["loopback"] < times["remote"]
        # Paper: RDMA (incl. loopback) is >= an order of magnitude slower
        # than a ~100ns shared-memory op.
        assert times["loopback"] >= 500

    def test_atomic_slower_than_read(self):
        env, net, _ = make_net()
        ptr = pack_ptr(1, 64)
        times = {}

        def proc():
            yield from net.r_read(0, 0, ptr)  # warm the QP context
            t0 = env.now
            yield from net.r_read(0, 0, ptr)
            times["read"] = env.now - t0
            t1 = env.now
            yield from net.r_cas(0, 0, ptr, 0, 1)
            times["cas"] = env.now - t1

        run_verb(env, proc())
        assert times["cas"] > times["read"]


class TestLoopbackAccounting:
    def test_loopback_counted(self):
        env, net, _ = make_net()

        def proc():
            yield from net.r_read(0, 0, pack_ptr(0, 64))
            yield from net.r_read(0, 0, pack_ptr(1, 64))

        run_verb(env, proc())
        assert net.loopback_verbs == 1
        assert net.nics[0].loopback_ops == 1

    def test_loopback_occupies_both_pipelines_of_same_nic(self):
        env, net, _ = make_net()

        def proc():
            yield from net.r_write(0, 0, pack_ptr(0, 64), 1)

        run_verb(env, proc())
        nic = net.nics[0]
        assert nic.tx_ops == 1
        assert nic.rx_ops == 1
        assert net.nics[1].rx_ops == 0


class TestCongestion:
    def test_latency_grows_with_concurrency(self):
        """Many concurrent loopback atomics on one NIC must queue: mean
        latency grows with offered concurrency (RX-buffer accumulation)."""
        def mean_latency(n_threads):
            env, net, _ = make_net(n_nodes=1)
            ptr = pack_ptr(0, 64)
            latencies = []

            def worker(tid):
                for _ in range(20):
                    t0 = env.now
                    yield from net.r_cas(0, tid, ptr, 0, 0)
                    latencies.append(env.now - t0)

            for tid in range(n_threads):
                env.process(worker(tid))
            env.run()
            return sum(latencies) / len(latencies)

        assert mean_latency(8) > 1.3 * mean_latency(1)

    def test_congestion_inflation_engages_past_threshold(self):
        """Under a sustained backlog, runs with RX congestion enabled must
        take strictly longer than with it disabled."""
        def makespan(factor):
            cfg = RdmaConfig().with_nic(rx_congestion_threshold=0,
                                        rx_congestion_factor=factor)
            env, net, _ = make_net(n_nodes=1, config=cfg)
            ptr = pack_ptr(0, 64)

            def worker(tid):
                for _ in range(5):
                    yield from net.r_read(0, tid, ptr)

            for tid in range(12):
                env.process(worker(tid))
            env.run()
            return env.now

        assert makespan(1.0) > makespan(0.0)


class TestQpcThrashing:
    def test_many_connections_increase_latency(self):
        """When per-NIC live QPs exceed the cache, ops pay reload
        penalties and serialize slower."""
        cfg = RdmaConfig().with_nic(qpc_cache_entries=4)
        env, net, _ = make_net(n_nodes=2, config=cfg)
        ptr = pack_ptr(1, 64)

        def churn():
            # 16 distinct QPs against a 4-entry cache, twice round.
            for rnd in range(2):
                for tid in range(16):
                    yield from net.r_read(0, tid, ptr)

        run_verb(env, churn())
        assert net.nics[0].qpc.miss_rate == 1.0
        assert net.nics[0].qpc.penalty_ns_total > 0

    def test_small_working_set_no_thrashing(self):
        env, net, _ = make_net(n_nodes=2)
        ptr = pack_ptr(1, 64)

        def steady():
            for _ in range(10):
                yield from net.r_read(0, 0, ptr)

        run_verb(env, steady())
        assert net.nics[0].qpc.misses == 1  # cold miss only


class TestTable1NonAtomicity:
    def test_local_write_lost_inside_rcas_window(self):
        """A local write racing the rCAS window is overwritten and the
        auditor records the violation — Table 1 reproduced end to end."""
        auditor = RaceAuditor(mode="record")
        env, net, regions = make_net(n_nodes=2, auditor=auditor)
        ptr = pack_ptr(1, 64)
        target = regions[1]

        def remote():
            yield from net.r_cas(0, 0, ptr, 0, 111, actor="remote")

        local_done = {}

        def local():
            # Land a local write inside the RMW window.  The window opens
            # after send+transit+rx service; poll cheaply until the read
            # phase has happened, then write.
            while target.remote_ops_landed == 0:
                yield env.timeout(10)
            target.write(64, 999, actor="local")
            local_done["t"] = env.now

        env.process(remote())
        env.process(local())
        env.run()
        assert target.peek(64) == 111          # local 999 lost
        assert auditor.violation_count == 1
        assert auditor.violations[0].local_op == "Write"

    def test_no_violation_when_local_read_races(self):
        auditor = RaceAuditor(mode="record")
        env, net, regions = make_net(n_nodes=2, auditor=auditor)
        ptr = pack_ptr(1, 64)
        target = regions[1]

        def remote():
            yield from net.r_cas(0, 0, ptr, 0, 111)

        def local():
            while target.remote_ops_landed == 0:
                yield env.timeout(10)
            target.read(64, actor="local")

        env.process(remote())
        env.process(local())
        env.run()
        assert auditor.violation_count == 0


class TestAuditAttribution:
    def test_rmw_verbs_report_their_own_label(self):
        """Regression: rFAA atomic windows were registered with the
        auditor as "rCAS", mislabelling Table-1 violation reports."""
        seen = []

        class SpyAuditor(RaceAuditor):
            def remote_rmw_begin(self, node, addr, op, actor, start, end):
                seen.append(op)
                return super().remote_rmw_begin(
                    node, addr, op, actor, start, end)

        auditor = SpyAuditor(mode="record")
        env, net, _ = make_net(n_nodes=2, auditor=auditor)
        ptr = pack_ptr(1, 64)

        def proc():
            yield from net.r_cas(0, 0, ptr, 0, 1)
            yield from net.r_faa(0, 0, ptr, 1)

        run_verb(env, proc())
        assert seen == ["rCAS", "rFAA"]


class TestDeterminism:
    def test_same_seed_same_timeline(self):
        def run_once():
            env, net, _ = make_net(n_nodes=3)
            finish = []

            def worker(node, tid):
                for step in range(5):
                    target = (node + 1 + step) % 3
                    yield from net.r_cas(node, tid, pack_ptr(target, 64), 0, 0)
                finish.append((node, tid, env.now))

            for node in range(3):
                for tid in range(2):
                    env.process(worker(node, tid))
            env.run()
            return finish

        assert run_once() == run_once()
