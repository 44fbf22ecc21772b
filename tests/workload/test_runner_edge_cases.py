"""Runner edge cases: error propagation, degenerate windows, verb
accounting, and what build_cluster builds from a spec."""

import pytest

from repro.common.errors import SimulationError
from repro.locks.base import LOCK_TYPES, DistributedLock, register_lock_type
from repro.rdma.config import RdmaConfig
from repro.workload import WorkloadSpec, run_workload
from repro.workload.runner import build_cluster


class ExplodingLock(DistributedLock):
    kind = "exploding"

    def lock(self, ctx):
        yield ctx.env.timeout(10)
        raise RuntimeError("boom")

    def unlock(self, ctx):  # pragma: no cover - never reached
        yield ctx.env.timeout(10)


@pytest.fixture
def exploding():
    """A registered lock kind that raises mid-protocol."""
    register_lock_type("exploding", ExplodingLock)
    yield "exploding"
    del LOCK_TYPES["exploding"]


class TestErrorPropagation:
    def test_failing_lock_surfaces_in_count_mode(self, exploding):
        """A lock that raises mid-protocol must fail the run loudly, not
        silently produce partial numbers."""
        with pytest.raises(SimulationError, match=r"client-n0t0 died: "
                           r"RuntimeError: boom \(\+1 more\)"):
            run_workload(WorkloadSpec(n_nodes=2, threads_per_node=1,
                                      n_locks=2, lock_kind=exploding,
                                      ops_per_thread=1, audit="off"))


class TestWindows:
    def test_zero_warmup_allowed(self):
        result = run_workload(WorkloadSpec(
            n_nodes=2, threads_per_node=1, n_locks=2, lock_kind="alock",
            warmup_ns=0.0, measure_ns=300_000, audit="off"))
        assert result.measured_ops > 0

    def test_window_shorter_than_one_op(self):
        """A measurement window shorter than any op yields zero samples
        but a well-formed result, not a crash."""
        result = run_workload(WorkloadSpec(
            n_nodes=2, threads_per_node=1, n_locks=2, lock_kind="alock",
            locality_pct=0.0, warmup_ns=0.0, measure_ns=100.0, audit="off"))
        assert result.measured_ops == 0
        assert result.throughput_ops_per_sec == 0.0
        assert result.latency.count == 0


class TestAccounting:
    def test_verb_counts_zero_for_pure_local_alock(self):
        result = run_workload(WorkloadSpec(
            n_nodes=2, threads_per_node=2, n_locks=4, locality_pct=100.0,
            lock_kind="alock", ops_per_thread=10, audit="off"))
        assert result.verb_counts == {"rRead": 0, "rWrite": 0,
                                      "rCAS": 0, "rFAA": 0}
        assert result.loopback_verbs == 0

    def test_verb_counts_nonzero_for_baseline(self):
        result = run_workload(WorkloadSpec(
            n_nodes=2, threads_per_node=2, n_locks=4, locality_pct=100.0,
            lock_kind="spinlock", ops_per_thread=10, audit="off"))
        assert result.verb_counts["rCAS"] >= 40
        assert result.loopback_verbs > 0

    def test_nic_stats_cover_all_nodes(self):
        result = run_workload(WorkloadSpec(
            n_nodes=3, threads_per_node=1, n_locks=3, locality_pct=50.0,
            lock_kind="alock", ops_per_thread=5, audit="off"))
        assert [n["node"] for n in result.nic_stats] == [0, 1, 2]
        assert all("rx_utilization" in n for n in result.nic_stats)


class TestBuildCluster:
    def test_exposes_cluster_and_table(self):
        spec = WorkloadSpec(n_nodes=2, threads_per_node=1, n_locks=6,
                            lock_kind="mcs", ops_per_thread=1)
        cluster, table = build_cluster(spec)
        assert cluster.n_nodes == 2
        assert len(table) == 6
        assert table.lock_kind == "mcs"

    def test_the_specs_cost_model_reaches_the_cluster(self):
        cfg = RdmaConfig().with_fabric(one_way_latency_ns=123.0)
        spec = WorkloadSpec(n_nodes=2, threads_per_node=1, n_locks=2,
                            lock_kind="alock", ops_per_thread=1, config=cfg)
        cluster, _ = build_cluster(spec)
        assert cluster.config is cfg
        assert cluster.network.config.fabric.one_way_latency_ns == 123.0
