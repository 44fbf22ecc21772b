"""ALock correctness tests: single-thread paths, cohort contention,
cross-cohort Peterson interaction, budget fairness, atomicity audit."""

import inspect

import pytest

from repro.cluster import Cluster
from repro.common.errors import ConfigError, ProtocolError
from repro.locks import ALock, make_lock
from repro.memory.pointer import ptr_addr

from tests.conftest import profiling
from tests.locks.helpers import (
    always_local,
    always_remote,
    mixed_locality,
    single_lock,
    stress,
)


@pytest.fixture()
def cluster():
    return Cluster(3, seed=42)


def drive(cluster, *gens):
    procs = [cluster.env.process(g) for g in gens]
    cluster.run()
    for p in procs:
        assert p.ok, p.value
    return procs


class TestConstruction:
    def test_budget_validation(self, cluster):
        with pytest.raises(ConfigError):
            ALock(cluster, 0, local_budget=0)
        with pytest.raises(ConfigError):
            ALock(cluster, 0, remote_budget=0)

    def test_record_is_cache_line_aligned(self, cluster):
        lock = ALock(cluster, 1)
        assert ptr_addr(lock.base_ptr) % 64 == 0

    def test_field_pointers(self, cluster):
        lock = ALock(cluster, 1)
        assert lock.tail_l_ptr == lock.base_ptr + 8
        assert lock.victim_ptr == lock.base_ptr + 16


class TestSingleThread:
    def test_local_acquire_release(self, cluster):
        lock = ALock(cluster, 0)
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from lock.lock(ctx)
            assert lock.holder_gid == ctx.gid
            assert lock.is_locked()
            yield from lock.unlock(ctx)

        drive(cluster, proc())
        assert lock.holder_gid == 0
        assert not lock.is_locked()
        assert lock.leader_acquires["local"] == 1
        cluster.auditor.assert_clean()

    def test_remote_acquire_release(self, cluster):
        lock = ALock(cluster, 1)
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from lock.lock(ctx)
            assert lock.is_locked()
            yield from lock.unlock(ctx)

        drive(cluster, proc())
        assert not lock.is_locked()
        assert lock.leader_acquires["remote"] == 1
        cluster.auditor.assert_clean()

    def test_local_lock_uses_zero_rdma_ops(self, cluster):
        """The headline property: a local acquisition issues no verbs at
        all — no loopback, no RPC."""
        lock = ALock(cluster, 0)
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from lock.lock(ctx)
            yield from lock.unlock(ctx)

        drive(cluster, proc())
        assert ctx.remote_op_count == 0
        assert cluster.network.loopback_verbs == 0

    def test_remote_uncontended_op_count(self, cluster):
        """Uncontended remote path: 1 rCAS (swap) + 1 rRead (Peterson
        check of tail_l) + 1 rWrite (victim) to lock, 1 rCAS to unlock."""
        lock = ALock(cluster, 1)
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from lock.lock(ctx)
            yield from lock.unlock(ctx)

        drive(cluster, proc())
        counts = cluster.network.verb_counts
        assert counts["rCAS"] == 2
        assert counts["rWrite"] == 1
        assert counts["rRead"] == 1

    def test_uncontended_cost_asymmetry(self):
        """The microscopic asymmetry §6's macro results are built from: a
        warm uncontended local ALock op costs hundreds of ns; every
        RDMA-path op — remote ALock, and the baselines even locally,
        through loopback — costs microseconds."""
        def one_op_ns(kind, local):
            cluster = Cluster(2, audit="off")
            lock = make_lock(kind, cluster, 0)
            ctx = cluster.thread_ctx(0 if local else 1, 0)

            def proc():
                yield from lock.lock(ctx)       # warm the QP contexts
                yield from lock.unlock(ctx)
                start = cluster.env.now
                yield from lock.lock(ctx)
                yield from lock.unlock(ctx)
                return cluster.env.now - start

            (p,) = drive(cluster, proc())
            return p.value

        cost = {(kind, local): one_op_ns(kind, local)
                for kind in ("alock", "spinlock", "mcs")
                for local in (True, False)}
        fast = cost.pop(("alock", True))
        assert fast < 1_500
        assert all(ns > 1_500 for ns in cost.values()), cost
        assert cost["spinlock", True] > 4 * fast
        assert cost["mcs", True] > 8 * fast

    def test_relock_after_unlock(self, cluster):
        lock = ALock(cluster, 0)
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            for _ in range(5):
                yield from lock.lock(ctx)
                yield from lock.unlock(ctx)

        drive(cluster, proc())
        assert lock.acquisitions == 5

    def test_reentrant_lock_rejected(self, cluster):
        lock = ALock(cluster, 0)
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from lock.lock(ctx)
            yield from lock.lock(ctx)

        p = cluster.env.process(proc())
        cluster.run()
        assert not p.ok
        assert isinstance(p.value, ProtocolError)

    def test_unlock_without_holding_rejected(self, cluster):
        lock = ALock(cluster, 0)
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            yield from lock.unlock(ctx)

        p = cluster.env.process(proc())
        cluster.run()
        assert not p.ok
        assert isinstance(p.value, ProtocolError)


class TestLocalCohortContention:
    def test_two_local_threads_serialize(self, cluster):
        lock = ALock(cluster, 0)
        order = []

        def client(tid):
            ctx = cluster.thread_ctx(0, tid)
            yield from lock.lock(ctx)
            order.append(("enter", tid, cluster.env.now))
            yield cluster.env.timeout(500)
            order.append(("exit", tid, cluster.env.now))
            yield from lock.unlock(ctx)

        drive(cluster, client(0), client(1))
        # Critical sections must not overlap.
        events = sorted(order, key=lambda e: e[2])
        assert [e[0] for e in events] == ["enter", "exit", "enter", "exit"]
        cluster.auditor.assert_clean()

    def test_mcs_pass_used_within_budget(self, cluster):
        lock = ALock(cluster, 0, local_budget=10)

        def client(tid):
            ctx = cluster.thread_ctx(0, tid)
            for _ in range(3):
                yield from lock.lock(ctx)
                yield from lock.unlock(ctx)

        drive(cluster, *(client(t) for t in range(4)))
        assert lock.passes["local"] > 0
        cluster.auditor.assert_clean()


class TestRemoteCohortContention:
    def test_two_remote_threads_serialize(self, cluster):
        lock = ALock(cluster, 2)
        overlap = {"in_cs": 0, "max": 0}

        def client(node):
            ctx = cluster.thread_ctx(node, 0)
            yield from lock.lock(ctx)
            overlap["in_cs"] += 1
            overlap["max"] = max(overlap["max"], overlap["in_cs"])
            yield cluster.env.timeout(1000)
            overlap["in_cs"] -= 1
            yield from lock.unlock(ctx)

        drive(cluster, client(0), client(1))
        assert overlap["max"] == 1
        cluster.auditor.assert_clean()

    def test_remote_pass_spins_locally_not_remotely(self, cluster):
        """While waiting for an MCS pass, a remote-cohort thread issues
        no verbs (it parks on its own descriptor)."""
        lock = ALock(cluster, 2)
        waiter_ops = {}

        def holder():
            ctx = cluster.thread_ctx(0, 0)
            yield from lock.lock(ctx)
            yield cluster.env.timeout(50_000)
            yield from lock.unlock(ctx)

        def waiter():
            ctx = cluster.thread_ctx(1, 0)
            yield cluster.env.timeout(10_000)  # enqueue while holder in CS
            before = None
            yield from lock.lock(ctx)
            waiter_ops["verbs"] = ctx.remote_op_count
            yield from lock.unlock(ctx)

        drive(cluster, holder(), waiter())
        # swap CAS(es) + link rWrite only; no spinning traffic.
        assert waiter_ops["verbs"] <= 4
        cluster.auditor.assert_clean()


class TestCrossCohort:
    def test_fig2_local_vs_remote(self, cluster):
        """The paper's Fig. 2 scenario: a remote holder, then a local
        requester that must wait in Peterson until the remote tail
        clears."""
        lock = ALock(cluster, 1)
        times = {}

        def remote_t1():
            ctx = cluster.thread_ctx(0, 0)
            yield from lock.lock(ctx)
            times["r_enter"] = cluster.env.now
            yield cluster.env.timeout(20_000)
            yield from lock.unlock(ctx)
            times["r_exit"] = cluster.env.now

        def local_t2():
            ctx = cluster.thread_ctx(1, 0)
            yield cluster.env.timeout(5_000)  # arrive while t1 holds
            yield from lock.lock(ctx)
            times["l_enter"] = cluster.env.now
            yield from lock.unlock(ctx)

        drive(cluster, remote_t1(), local_t2())
        assert times["r_enter"] < times["l_enter"]
        # local waits for remote release (rCAS landing precedes the
        # holder's generator resuming, so compare against r_exit window)
        assert times["l_enter"] > times["r_enter"] + 20_000
        cluster.auditor.assert_clean()

    def test_remote_waits_for_local_release(self, cluster):
        lock = ALock(cluster, 1)
        times = {}

        def local_holder():
            ctx = cluster.thread_ctx(1, 0)
            yield from lock.lock(ctx)
            times["l_enter"] = cluster.env.now
            yield cluster.env.timeout(30_000)
            yield from lock.unlock(ctx)

        def remote_waiter():
            ctx = cluster.thread_ctx(2, 0)
            yield cluster.env.timeout(2_000)
            yield from lock.lock(ctx)
            times["r_enter"] = cluster.env.now
            yield from lock.unlock(ctx)

        drive(cluster, local_holder(), remote_waiter())
        assert times["r_enter"] > times["l_enter"] + 30_000
        cluster.auditor.assert_clean()


class TestBudgetFairness:
    def test_remote_not_starved_by_local_stream(self, cluster):
        """A continuous stream of local acquisitions must not starve a
        remote requester: the local budget forces a reacquire that
        yields via the victim word (starvation freedom, §5)."""
        lock = ALock(cluster, 0, local_budget=3)
        progress = {}

        def local_stream(tid):
            ctx = cluster.thread_ctx(0, tid)
            for _ in range(30):
                yield from lock.lock(ctx)
                yield from lock.unlock(ctx)

        def remote_once():
            ctx = cluster.thread_ctx(1, 0)
            yield cluster.env.timeout(1_000)
            yield from lock.lock(ctx)
            progress["remote_at"] = cluster.env.now
            progress["local_done"] = sum(
                1 for _ in ()) if False else lock.acquisitions
            yield from lock.unlock(ctx)

        drive(cluster, local_stream(0), local_stream(1), local_stream(2),
              remote_once())
        assert "remote_at" in progress
        # The remote got in before the locals finished all 90 ops.
        assert progress["local_done"] < 91
        assert lock.reacquires["local"] >= 1
        cluster.auditor.assert_clean()

    def test_local_not_starved_by_remote_stream(self, cluster):
        lock = ALock(cluster, 0, remote_budget=4)
        progress = {}

        def remote_stream(node):
            ctx = cluster.thread_ctx(node, 0)
            for _ in range(20):
                yield from lock.lock(ctx)
                yield from lock.unlock(ctx)

        def local_once():
            ctx = cluster.thread_ctx(0, 0)
            yield cluster.env.timeout(10_000)
            yield from lock.lock(ctx)
            progress["local_done"] = lock.acquisitions
            yield from lock.unlock(ctx)

        drive(cluster, remote_stream(1), remote_stream(2), local_once())
        assert progress["local_done"] < 41
        cluster.auditor.assert_clean()

    def test_budget_resets_after_reacquire(self, cluster):
        """After a cohort yields at budget 0, passing resumes — total
        passes far exceed one budget's worth."""
        lock = ALock(cluster, 0, local_budget=2)

        def client(tid):
            ctx = cluster.thread_ctx(0, tid)
            for _ in range(10):
                yield from lock.lock(ctx)
                yield from lock.unlock(ctx)

        drive(cluster, *(client(t) for t in range(3)))
        assert lock.acquisitions == 30
        assert lock.reacquires["local"] >= 2
        cluster.auditor.assert_clean()


class TestStress:
    def test_local_only_stress(self):
        stress("alock", n_nodes=2, threads_per_node=3, n_locks=4,
               ops_per_thread=15, pick_lock=always_local)

    def test_remote_only_stress(self):
        stress("alock", n_nodes=3, threads_per_node=2, n_locks=3,
               ops_per_thread=8, pick_lock=always_remote)

    def test_single_lock_max_contention(self):
        result = stress("alock", n_nodes=3, threads_per_node=2, n_locks=3,
                        ops_per_thread=10, pick_lock=single_lock)
        assert result["table"].entry(0).lock.acquisitions == 60

    def test_mixed_locality_stress(self):
        stress("alock", n_nodes=3, threads_per_node=2, n_locks=6,
               ops_per_thread=12, pick_lock=mixed_locality)

    def test_non_strict_rdma_ablation(self):
        stress("alock", n_nodes=2, threads_per_node=2, n_locks=2,
               ops_per_thread=10, pick_lock=mixed_locality,
               lock_options={"strict_remote_rdma": False})

    def test_small_budgets_stress(self):
        stress("alock", n_nodes=2, threads_per_node=3, n_locks=2,
               ops_per_thread=10, pick_lock=mixed_locality,
               lock_options={"local_budget": 1, "remote_budget": 1})

    def test_strict_audit_mode_stays_clean(self):
        stress("alock", n_nodes=2, threads_per_node=2, n_locks=2,
               ops_per_thread=8, pick_lock=mixed_locality, audit="strict")


class TestWatcherWithdrawal:
    """``wait_local``/``wait_local_cond`` register their watcher at the
    first failed read and withdraw it when a later read of the round
    succeeds, so a wait that never parked leaves nothing behind to be
    fired at nobody."""

    def test_an_uncontended_local_run_leaves_no_watcher(self):
        out = stress("alock", n_nodes=2, threads_per_node=1, n_locks=2,
                     ops_per_thread=25, pick_lock=always_local)
        cluster = out["cluster"]
        assert [r.watcher_count() for r in cluster.regions] == [0, 0]
        # same run, same simulated time as with the ghost wake-ups (652
        # dispatches before the withdrawal, 604 before schedule version
        # 3 fused each op's private steps into its visible ones: five
        # sleeps per op fewer)
        assert out["duration_ns"] == 16875.0
        assert cluster.env.event_count == 354

    def test_a_contended_local_run_wakes_exactly_as_before(self):
        """Parked waiters are woken by the same writes in the same
        order: duration, passes and reacquires are the values from
        before the withdrawal; only dispatches nobody listened to (254
        of 2 392) are gone, and schedule version 3's fused private
        steps (2 138 → 1 730).  No verb, no resource: the simulated
        times do not depend on the schedule version."""
        out = stress("alock", n_nodes=1, threads_per_node=4, n_locks=1,
                     ops_per_thread=30, pick_lock=single_lock)
        lock = out["table"].entries[0].lock
        assert out["duration_ns"] == 67750.0
        assert (lock.passes["local"], lock.reacquires["local"],
                lock.leader_acquires["local"]) == (119, 23, 1)
        assert out["cluster"].env.event_count == 1730
        assert out["cluster"].regions[0].watcher_count() == 0


def test_an_uncontended_local_op_is_one_leaf_frame_per_step():
    """The depth guard for the local path (the verbs' is
    ``test_verb_timelines.py::test_a_verb_is_one_generator_frame``): on
    an untimed cluster one uncontended local ``lock`` + ``unlock`` is
    five sleeps, one per visible step (the private steps ride with the
    next one), and the only generators under the process body are the
    algorithm's own procedures and one leaf frame per visible word op —
    a fence is a delay, a private store applies at once, the compound
    wait makes its own reads, a descriptor's ``begin`` is bookkeeping."""
    cluster = Cluster(1, seed=0)
    lock = ALock(cluster, 0)
    ctx = cluster.thread_ctx(0, 0)

    def body():
        yield from lock.lock(ctx)
        yield from lock.unlock(ctx)

    entered = []

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code.co_flags & inspect.CO_GENERATOR:
            entered.append(frame.f_code.co_name)

    proc = cluster.env.process(body())
    with profiling(profiler):
        cluster.run()
    assert proc.ok, proc.value
    # boot, five sleeps ([2 resets, swap], [budget, victim], [fence, one
    # clause read], [fence] | [fence, tail CAS]), the process's own event
    assert cluster.env.event_count == 7
    assert cluster.env.now == 560.0
    assert set(entered) == {
        "body", "lock", "_acquire_cohort", "acquire_local", "wait_local_cond",
        "unlock", "_release_cohort", "write", "cas"}
    assert len(entered) <= 30  # 49 when each step slept on its own
