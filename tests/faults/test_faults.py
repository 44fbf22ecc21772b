"""Fault-injection layer: plan validation, determinism, retransmission,
timeouts, crash windows, lease recovery, and the zero-fault guarantee."""

import pytest

from repro.cluster import Cluster
from repro.common.errors import ConfigError, VerbTimeout
from repro.common.rng import RngStreams
from repro.faults import CrashWindow, FaultInjector, FaultPlan
from repro.workload import WorkloadSpec, run_workload

RETRY = dict(retry_timeout_ns=10_000.0, retry_backoff=2.0, retry_limit=4)

BASE = WorkloadSpec(n_nodes=3, threads_per_node=2, n_locks=12,
                    locality_pct=90.0, warmup_ns=50_000.0,
                    measure_ns=300_000.0, audit="off")


class TestFaultPlan:
    def test_defaults_are_inactive(self):
        assert not FaultPlan().active

    @pytest.mark.parametrize("kwargs", [
        dict(verb_loss_rate=0.01),
        dict(spike_rate=0.1, spike_ns=500.0),
        dict(crash_windows=(CrashWindow(0, 10.0, 20.0),)),
        dict(holder_stall_rate=0.1, holder_stall_ns=100.0),
        dict(lease_ns=1000.0),
    ])
    def test_any_knob_activates(self, kwargs):
        assert FaultPlan(**kwargs).active

    @pytest.mark.parametrize("kwargs", [
        dict(verb_loss_rate=-0.1),
        dict(verb_loss_rate=1.5),
        dict(spike_rate=0.1),                 # spike without duration
        dict(holder_stall_rate=0.1),          # stall without duration
        dict(retry_timeout_ns=0.0),
        dict(retry_backoff=0.5),
        dict(retry_limit=0),
    ])
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FaultPlan(**kwargs)

    def test_crash_window_validation(self):
        with pytest.raises(ConfigError):
            CrashWindow(0, 20.0, 10.0)
        with pytest.raises(ConfigError):
            CrashWindow(-1, 0.0, 10.0)

    def test_crashed_lookup(self):
        plan = FaultPlan(crash_windows=[CrashWindow(1, 100.0, 200.0)])
        assert isinstance(plan.crash_windows, tuple)  # list coerced
        assert plan.crashed(1, 150.0)
        assert not plan.crashed(1, 200.0)   # half-open interval
        assert not plan.crashed(0, 150.0)

    def test_plan_is_hashable(self):
        # must ride on the frozen WorkloadSpec
        hash(FaultPlan(crash_windows=(CrashWindow(0, 1.0, 2.0),)))


class TestFaultInjector:
    def make(self, plan, seed=0):
        return FaultInjector(plan, RngStreams(seed).fork("faults"))

    def test_decisions_replay_for_fixed_seed(self):
        plan = FaultPlan(verb_loss_rate=0.3, spike_rate=0.2, spike_ns=100.0)

        def draw():
            inj = self.make(plan)
            return [inj.decide_verb("rCAS", 0, 1, 0.0) for _ in range(200)]

        assert draw() == draw()

    def test_loss_rate_roughly_respected(self):
        inj = self.make(FaultPlan(verb_loss_rate=0.25))
        drops = sum(inj.decide_verb("rRead", 0, 1, 0.0).dropped
                    for _ in range(2000))
        assert 400 < drops < 600

    def test_crash_window_drops_everything(self):
        inj = self.make(FaultPlan(crash_windows=(CrashWindow(1, 0.0, 100.0),)))
        inside = inj.decide_verb("rCAS", 0, 1, 50.0)
        after = inj.decide_verb("rCAS", 0, 1, 100.0)
        assert inside.dropped and inside.cause == "crash"
        assert not after.dropped
        assert inj.crash_drops == 1

    def test_holder_stall_stream_is_per_thread(self):
        plan = FaultPlan(holder_stall_rate=0.5, holder_stall_ns=42.0)
        a = self.make(plan)
        b = self.make(plan)
        # thread (0,0)'s schedule is unaffected by other threads' draws
        for _ in range(50):
            b.holder_stall(1, 3)
        seq_a = [a.holder_stall(0, 0) for _ in range(50)]
        seq_b = [b.holder_stall(0, 0) for _ in range(50)]
        assert seq_a == seq_b
        assert 42.0 in seq_a


class TestZeroFaultGuarantee:
    def test_inactive_plan_matches_no_plan_exactly(self):
        plain = run_workload(BASE)
        zero = run_workload(BASE.with_(faults=FaultPlan()))
        assert plain.completed_ops == zero.completed_ops
        assert plain.measured_ops == zero.measured_ops
        assert (plain.latencies_ns == zero.latencies_ns).all()
        assert plain.per_thread_ops == zero.per_thread_ops
        assert not zero.fault_stats
        assert zero.retry_count == 0 and zero.recovery_count == 0

    def test_inactive_plan_builds_no_injector(self):
        cluster = Cluster(2, faults=FaultPlan(), audit="off")
        assert cluster.fault_injector is None
        assert "faults" not in cluster.network.stats()


class TestLossAndRetries:
    def test_lossy_run_completes_with_retries(self):
        res = run_workload(BASE.with_(
            faults=FaultPlan(verb_loss_rate=0.02, **RETRY)))
        assert res.measured_ops > 0
        assert res.retry_count > 0
        assert res.fault_stats["injected_losses"] > 0
        assert res.fault_stats["aborted_clients"] == 0
        assert set(res.fault_stats["retries_by_verb"]) <= {
            "rRead", "rWrite", "rCAS", "rFAA"}

    def test_faulty_run_is_deterministic(self):
        spec = BASE.with_(faults=FaultPlan(
            verb_loss_rate=0.02, spike_rate=0.01, spike_ns=2_000.0,
            holder_stall_rate=0.05, holder_stall_ns=20_000.0,
            lease_ns=15_000.0, **RETRY))
        a = run_workload(spec)
        b = run_workload(spec)
        assert a.completed_ops == b.completed_ops
        assert a.measured_ops == b.measured_ops
        assert (a.latencies_ns == b.latencies_ns).all()
        assert a.fault_stats == b.fault_stats

    def test_loss_degrades_throughput(self):
        healthy = run_workload(BASE)
        lossy = run_workload(BASE.with_(
            faults=FaultPlan(verb_loss_rate=0.05, **RETRY)))
        assert 0 < lossy.throughput_ops_per_sec < healthy.throughput_ops_per_sec

    def test_retry_budget_exhaustion_surfaces_verb_timeout(self):
        """On a dead fabric every client aborts with VerbTimeout instead
        of hanging the run."""
        res = run_workload(BASE.with_(
            ops_per_thread=0,
            faults=FaultPlan(verb_loss_rate=1.0, retry_timeout_ns=5_000.0,
                             retry_backoff=1.0, retry_limit=2)))
        assert res.fault_stats["verb_timeouts"] > 0
        assert res.fault_stats["aborted_clients"] > 0
        assert res.recovery_count > 0

    def test_verb_timeout_carries_context(self):
        cluster = Cluster(2, seed=3, audit="off",
                          faults=FaultPlan(verb_loss_rate=1.0,
                                           retry_timeout_ns=5_000.0,
                                           retry_backoff=1.0, retry_limit=3))
        ctx = cluster.thread_ctx(0, 0)
        from repro.memory import pack_ptr

        def proc():
            yield from ctx.r_read(pack_ptr(1, 64))

        p = cluster.env.process(proc())
        cluster.run()
        assert not p.ok
        exc = p.value
        assert isinstance(exc, VerbTimeout)
        assert exc.verb == "rRead"
        assert exc.target_node == 1
        assert exc.attempts == 3
        assert cluster.fault_injector.verb_timeouts == 1


class TestLeaseRecovery:
    def test_stalled_holders_detected_not_deadlocked(self):
        res = run_workload(BASE.with_(faults=FaultPlan(
            holder_stall_rate=0.05, holder_stall_ns=40_000.0,
            lease_ns=10_000.0, **RETRY)))
        assert res.measured_ops > 0
        assert res.fault_stats["injected_cs_stalls"] > 0
        assert res.fault_stats["lease_expirations"] > 0
        assert res.fault_stats["degraded_locks"] > 0
        assert res.recovery_count >= res.fault_stats["lease_expirations"]

    def test_no_expirations_without_stalls(self):
        res = run_workload(BASE.with_(faults=FaultPlan(
            lease_ns=50_000.0, verb_loss_rate=0.005, **RETRY)))
        assert res.fault_stats["lease_expirations"] == 0

    def test_expiry_freezes_a_postmortem(self):
        """A lease expiry snapshots the table state even though the run
        continues degraded (tentpole: every failure carries evidence)."""
        import json

        from repro.locktable import DistributedLockTable
        from repro.obs.postmortem import SCHEMA

        cluster = Cluster(1, audit="off")
        table = DistributedLockTable(cluster, 1, "spinlock",
                                     lease_ns=1_000.0)
        env = cluster.env
        holder, waiter = cluster.thread_ctx(0, 0), cluster.thread_ctx(0, 1)

        def stalled_holder():
            yield from table.acquire(holder, 0)
            yield env.timeout(5_000.0)  # sit on the lock past the lease
            yield from table.release(holder, 0)

        def blocked_waiter():
            yield from table.acquire(waiter, 0)
            yield from table.release(waiter, 0)

        env.process(stalled_holder())
        env.process(blocked_waiter())
        cluster.run()
        assert table.lease_expirations > 0
        dump = json.loads(table.last_postmortem)
        assert dump["schema"] == SCHEMA
        assert dump["reason"] == "lease-expiry"
        assert "spinlock[0]@n0" in dump["detail"]
        assert dump["locks"][0]["holder"] == "t0@n0"
        assert any(e.kind == "lease.expired"
                   for e in cluster.flight.window())


@pytest.mark.faults
def test_ext_faults_experiment_smoke(smoke_figure):
    """Tier-1 smoke of the full fault sweep: every shape check holds."""
    result = smoke_figure("ext-faults")
    assert result.all_shapes_hold, result.shape_checks
    assert len(result.rows) == 10
