"""Tests for WorkloadSpec validation and helpers."""

import pytest

from repro.common.errors import ConfigError
from repro.rdma.config import NicConfig
from repro.workload import WorkloadSpec


class TestValidation:
    def test_defaults_valid(self):
        WorkloadSpec()

    def test_bad_nodes(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(n_nodes=0)

    def test_bad_threads(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(threads_per_node=0)

    def test_locks_fewer_than_nodes(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(n_nodes=4, n_locks=3)

    def test_locality_range(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(locality_pct=101)
        with pytest.raises(ConfigError):
            WorkloadSpec(locality_pct=-1)

    def test_remote_access_needs_two_nodes(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(n_nodes=1, n_locks=4, locality_pct=95)

    def test_one_node_full_locality_ok(self):
        WorkloadSpec(n_nodes=1, n_locks=4, locality_pct=100)

    def test_duration_mode_needs_window(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(measure_ns=0)

    def test_unknown_distribution(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(distribution="pareto")

    @pytest.mark.parametrize("field", ["warmup_ns", "think_ns", "cs_ns"])
    def test_negative_times_rejected(self, field):
        """A negative time is bad config, not a run that stalls at a
        negative deadline or divides by a stretched window."""
        with pytest.raises(ConfigError, match=rf"{field} must be >= 0"):
            WorkloadSpec(ops_per_thread=2, **{field: -1.0})

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"),
                                       float("-inf"), -0.5])
    def test_bad_zipf_theta_rejected(self, theta):
        """A NaN skew made an all-NaN CDF whose every pick was the first
        lock; an infinite or negative one ran as silently."""
        with pytest.raises(ConfigError, match="zipf_theta must be finite"):
            WorkloadSpec(distribution="zipfian", zipf_theta=theta)

    @pytest.mark.parametrize("theta", [0.0, 0.99, 300.0])
    def test_finite_zipf_theta_accepted(self, theta):
        assert WorkloadSpec(distribution="zipfian",
                            zipf_theta=theta).zipf_theta == theta

    @pytest.mark.parametrize("audit", ["strcit", "bogus", None])
    def test_an_unknown_audit_mode_is_refused(self, audit):
        """Caught at the spec, before any cell runs, instead of a strict
        run built as a record-mode one."""
        with pytest.raises(ConfigError, match="audit must be one of"):
            WorkloadSpec(audit=audit)

    def test_a_scenario_gets_the_check_through_its_spec(self):
        from repro.schedcheck import LockScenario

        with pytest.raises(ConfigError, match="audit must be one of"):
            LockScenario(audit="strcit").build()

    @pytest.mark.parametrize("config", [None, NicConfig(), {}],
                             ids=["none", "nic-only", "dict"])
    def test_a_config_that_is_no_rdma_config_is_rejected(self, config):
        """Caught at the spec, not late inside a pool worker's cluster."""
        with pytest.raises(ConfigError, match="config must be an RdmaConfig"):
            WorkloadSpec(config=config)


class TestHelpers:
    def test_lock_options_dict_normalized(self):
        spec = WorkloadSpec(lock_options={"remote_budget": 10, "local_budget": 2})
        assert spec.options_dict == {"remote_budget": 10, "local_budget": 2}
        # normalized form is hashable
        hash(spec)

    def test_with_override(self):
        spec = WorkloadSpec(n_nodes=2, n_locks=10)
        other = spec.with_(n_locks=20)
        assert other.n_locks == 20
        assert spec.n_locks == 10

    def test_total_threads(self):
        assert WorkloadSpec(n_nodes=3, threads_per_node=4, n_locks=3).total_threads == 12

    def test_label_mentions_axes(self):
        label = WorkloadSpec(n_nodes=5, threads_per_node=2, n_locks=20,
                             locality_pct=95, lock_kind="alock").label()
        assert "alock" in label and "n5x2" in label and "95" in label
