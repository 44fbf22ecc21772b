"""End-to-end integration scenarios across the whole stack.

These run realistic (if compact) workloads through cluster + locks +
table + workload runner and assert system-level properties: emergent
congestion, QP thrashing at scale, fairness under adversarial load,
cross-lock independence, and full-run determinism.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.locks import ALock, make_lock
from repro.locktable import DistributedLockTable
from repro.rdma.config import RdmaConfig
from repro.workload import WorkloadSpec, run_workload
from tests.conftest import make_cluster_and_table


class TestEmergentCongestion:
    def test_spinlock_collapse_is_emergent_not_scripted(self):
        """The Fig.1 decline must come from queueing: with an
        over-provisioned NIC (fast pipelines, no congestion) the same
        workload scales instead of collapsing."""
        spec = WorkloadSpec(n_nodes=1, threads_per_node=16, n_locks=1000,
                            locality_pct=100.0, lock_kind="spinlock",
                            warmup_ns=100_000, measure_ns=400_000,
                            audit="off")
        stock = run_workload(spec).throughput_ops_per_sec
        beefy = RdmaConfig().with_nic(rx_service_ns=10.0, tx_service_ns=10.0,
                                      rx_congestion_factor=0.0,
                                      pcie_lanes=16, pcie_crossing_ns=10.0)
        fast = run_workload(spec, config=beefy).throughput_ops_per_sec
        assert fast > 2 * stock

    def test_qpc_thrashing_emerges_at_connection_scale(self):
        """Shrinking the QPC cache below the live-QP working set slows
        remote-heavy workloads (the §2 thrashing pitfall)."""
        spec = WorkloadSpec(n_nodes=4, threads_per_node=8, n_locks=40,
                            locality_pct=0.0, lock_kind="spinlock",
                            warmup_ns=100_000, measure_ns=400_000,
                            audit="off")
        roomy = run_workload(
            spec, config=RdmaConfig().with_nic(qpc_cache_entries=4096))
        tiny = run_workload(
            spec, config=RdmaConfig().with_nic(qpc_cache_entries=8))
        assert tiny.throughput_ops_per_sec < 0.9 * roomy.throughput_ops_per_sec

    def test_qpc_pressure_is_real_at_twenty_nodes(self):
        """At 20 nodes x 12 threads the per-NIC QP working set (12x19 TX +
        19x12 RX = 456) overwhelms the 256-entry QPC cache, while 5 nodes
        fit easily — the §2 scalability pitfall, localized.  All-remote
        and uncontended: under contention the spinlock's retries hammer
        one QP back-to-back, which is cache-friendly and masks it."""
        spec = WorkloadSpec(n_nodes=20, threads_per_node=12, n_locks=1000,
                            locality_pct=0.0, lock_kind="spinlock",
                            warmup_ns=200_000, measure_ns=800_000,
                            audit="off")

        def miss_rate(result):
            return np.mean([nic["qpc_miss_rate"] for nic in result.nic_stats])

        miss_big = miss_rate(run_workload(spec))
        miss_small = miss_rate(run_workload(spec.with_(n_nodes=5)))
        assert miss_big > 4 * miss_small
        assert miss_big > 0.15

    def test_alock_local_workload_immune_to_nic_size(self):
        """100%-local ALock traffic never touches the NIC, so NIC sizing
        cannot change it — the no-loopback claim, falsifiably."""
        spec = WorkloadSpec(n_nodes=2, threads_per_node=6, n_locks=10,
                            locality_pct=100.0, lock_kind="alock",
                            warmup_ns=100_000, measure_ns=400_000,
                            audit="off")
        stock = run_workload(spec)
        crippled = run_workload(
            spec, config=RdmaConfig().with_nic(rx_service_ns=5000.0,
                                               tx_service_ns=5000.0))
        assert stock.throughput_ops_per_sec == pytest.approx(
            crippled.throughput_ops_per_sec)
        assert stock.loopback_verbs == 0


class TestFairnessUnderAdversarialLoad:
    def test_remote_latency_bounded_by_local_budget(self):
        """With a smaller local budget, a remote requester facing a
        constant local barrage gets the lock sooner (the §6.1 fairness
        rationale)."""
        def remote_wait(local_budget):
            cluster = Cluster(2, seed=3, audit="off")
            lock = ALock(cluster, 0, local_budget=local_budget,
                         remote_budget=20)
            waits = []

            def local_stream(tid):
                ctx = cluster.thread_ctx(0, tid)
                for _ in range(200):
                    yield from lock.lock(ctx)
                    yield cluster.env.timeout(200)
                    yield from lock.unlock(ctx)

            def remote_requester():
                ctx = cluster.thread_ctx(1, 0)
                for _ in range(5):
                    start = cluster.env.now
                    yield from lock.lock(ctx)
                    waits.append(cluster.env.now - start)
                    yield from lock.unlock(ctx)

            for tid in range(3):
                cluster.env.process(local_stream(tid))
            p = cluster.env.process(remote_requester())
            cluster.run()
            assert p.ok, p.value
            return float(np.mean(waits))

        assert remote_wait(local_budget=2) < remote_wait(local_budget=40)

    def test_no_thread_starves_in_long_mixed_run(self):
        """Every client in a contended mixed run completes its quota —
        starvation freedom observed end to end."""
        result = run_workload(WorkloadSpec(
            n_nodes=3, threads_per_node=3, n_locks=3, locality_pct=70.0,
            lock_kind="alock", ops_per_thread=25, seed=13, audit="record",
            cs_counter=True))
        assert result.completed_ops == 3 * 3 * 25
        assert all(v == 25 for v in result.per_thread_ops.values())
        assert result.atomicity_violations == 0


class TestCrossLockIndependence:
    def test_disjoint_locks_do_not_serialize(self):
        """Threads on disjoint local locks proceed in parallel: the
        makespan matches one thread's serial time, not the sum."""
        cluster = Cluster(2, audit="off")
        locks = [ALock(cluster, n % 2) for n in range(4)]
        finish = []

        def client(i):
            ctx = cluster.thread_ctx(i % 2, i // 2)
            for _ in range(50):
                yield from locks[i].lock(ctx)
                yield from locks[i].unlock(ctx)
            finish.append(cluster.env.now)

        for i in range(4):
            cluster.env.process(client(i))
        cluster.run()
        assert max(finish) < 1.5 * min(finish)

    def test_one_thread_many_locks_sequentially(self):
        """A single thread can traverse many distinct locks (descriptor
        reuse across locks is sound when acquisitions don't overlap)."""
        cluster = Cluster(2, audit="strict")
        locks = [make_lock("alock", cluster, i % 2) for i in range(10)]
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            for _ in range(3):
                for lock in locks:
                    yield from lock.lock(ctx)
                    yield from lock.unlock(ctx)

        p = cluster.env.process(proc())
        cluster.run()
        assert p.ok, p.value
        assert sum(l.acquisitions for l in locks) == 30
        cluster.auditor.assert_clean()


class TestFullRunDeterminism:
    def test_entire_experiment_reproducible(self):
        """Two complete duration-mode runs (cluster, table, workload,
        metrics) are bit-identical."""
        spec = WorkloadSpec(n_nodes=3, threads_per_node=4, n_locks=30,
                            locality_pct=88.0, lock_kind="alock",
                            warmup_ns=100_000, measure_ns=500_000,
                            seed=77, audit="off")
        a = run_workload(spec)
        b = run_workload(spec)
        assert a.measured_ops == b.measured_ops
        assert np.array_equal(a.latencies_ns, b.latencies_ns)
        assert np.array_equal(a.local_mask, b.local_mask)
        assert a.verb_counts == b.verb_counts

    def test_seed_changes_timeline_not_invariants(self):
        specs = [WorkloadSpec(n_nodes=2, threads_per_node=3, n_locks=6,
                              locality_pct=80.0, lock_kind="alock",
                              ops_per_thread=15, cs_counter=True,
                              seed=s, audit="record") for s in (1, 2, 3)]
        results = [run_workload(s) for s in specs]
        # different seeds, different timelines
        assert len({r.latencies_ns.tobytes() for r in results}) == 3
        # but every invariant holds in all of them
        for r in results:
            assert r.completed_ops == 90
            assert r.atomicity_violations == 0


class TestMixedLockKindsOneCluster:
    def test_tables_of_different_kinds_coexist(self):
        """Two tables with different lock kinds share one cluster without
        interfering with each other's correctness."""
        cluster, alock_table = make_cluster_and_table(
            "alock", n_nodes=2, n_locks=4, seed=4, audit="record")
        spin_table = DistributedLockTable(cluster, 4, "spinlock")
        done = {"ops": 0}

        def client(node, thread, table):
            ctx = cluster.thread_ctx(node, thread)
            for op in range(10):
                idx = op % 4
                yield from table.acquire(ctx, idx)
                yield from table.guarded_increment(ctx, idx)
                yield from table.release(ctx, idx)
                done["ops"] += 1

        procs = [cluster.env.process(client(0, 0, alock_table)),
                 cluster.env.process(client(1, 0, alock_table)),
                 cluster.env.process(client(0, 1, spin_table)),
                 cluster.env.process(client(1, 1, spin_table))]
        cluster.run()
        assert all(p.ok for p in procs)
        alock_table.check_counters(20)
        spin_table.check_counters(20)
        cluster.auditor.assert_clean()
