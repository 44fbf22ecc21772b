"""The protocol event log itself: what each level keeps, that levels
nest, and that recording never perturbs a run."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.common.errors import ConfigError
from repro.faults import FaultPlan
from repro.obs.log import (
    INTERVALS,
    PROTOCOL,
    RING,
    RING_ARITY,
    RING_CAPACITY,
    VOCABULARY,
    EventLog,
    discard,
)
from repro.sim import Environment
from repro.workload import runner
from repro.workload.spec import WorkloadSpec


def one_of_each(log):
    for kind in VOCABULARY:
        log.emit("a", kind, "x", "y", "z")


class TestLevels:
    @pytest.mark.parametrize("level", [RING, PROTOCOL, INTERVALS])
    def test_a_level_keeps_its_kinds_and_the_lower_ones(self, level):
        log = EventLog(Environment(), level)
        one_of_each(log)
        assert [e[2] for e in log] == \
            [k for k, lowest in VOCABULARY.items() if lowest <= level]
        assert log.level == level and log.kept == len(log)

    def test_fields_are_stored_raw(self):
        log = EventLog(Environment(), PROTOCOL)
        prev = object()
        log.emit("t0@n0", "mcs.swap", "l0", "local", prev)
        ((t, actor, kind, fields),) = log
        assert (t, actor, kind) == (0.0, "t0@n0", "mcs.swap")
        assert fields[2] is prev

    def test_a_kind_outside_the_vocabulary_is_kept_at_every_level(self):
        """A user lock reports its own steps with a bare emit."""
        log = EventLog(Environment())
        log.emit("t0@n0", "tas.spin", "l0", 3)
        assert [e[2] for e in log] == ["tas.spin"]

    def test_ring_level_is_a_ring(self):
        log = EventLog(Environment())
        for i in range(RING_CAPACITY + 10):
            log.emit("a", "verb.issue", i)
        assert len(log) == RING_CAPACITY == 1024
        assert (log.kept, log.dropped) == (RING_CAPACITY + 10, 10)

    def test_ring_arity_names_ring_kinds(self):
        assert all(VOCABULARY[kind] == RING for kind in RING_ARITY)

    def test_discard_takes_any_event(self):
        assert discard("n0", "fault.drop", "rCAS", 1, "loss") is None


def run_tapped(spec, obs=RING):
    """``run_workload`` plus the cluster it built."""
    seen = []
    original = runner.build_cluster

    def build_cluster(spec, *, obs):
        cluster, table = original(spec, obs=obs)
        seen.append(cluster)
        return cluster, table

    runner.build_cluster = build_cluster
    try:
        result = runner.run_workload(spec, obs=obs)
    finally:
        runner.build_cluster = original
    return result, seen[0]


class TestLevelsNest:
    """Raising the level never changes what a lower view shows."""

    @pytest.mark.parametrize("lock_kind", ["alock", "mcs"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ring_view_is_the_same_at_every_level(self, lock_kind, seed):
        # long enough that every run overflows the ring (30 ops per
        # thread: ALock reports fewer ring events per op since its swap
        # names its descriptor and opens its wait)
        spec = WorkloadSpec(
            n_nodes=3, threads_per_node=3, n_locks=4, locality_pct=60.0,
            ops_per_thread=30, cs_ns=200.0, seed=seed, lock_kind=lock_kind,
            audit="off",
            faults=FaultPlan(verb_loss_rate=0.02, spike_rate=0.05,
                             spike_ns=400.0, holder_stall_rate=0.05,
                             holder_stall_ns=900.0))
        at_ring, ring_cluster = run_tapped(spec)
        traced, traced_cluster = run_tapped(spec, obs=PROTOCOL)
        timed, timed_cluster = run_tapped(spec, obs=INTERVALS)

        # the ring view is the last 1024 ring-vocabulary events of the
        # full log, shown with their ring-level fields ...
        full = timed_cluster.log
        assert full.level == INTERVALS and full.dropped == 0
        expected = [(t, actor, kind, fields[:RING_ARITY.get(kind)])
                    for t, actor, kind, fields in full
                    if VOCABULARY[kind] == RING][-RING_CAPACITY:]
        window = timed_cluster.flight.window()
        assert len(window) == RING_CAPACITY and window == expected
        assert {e.kind for e in window} >= {"verb.issue", "lock.wait",
                                            "fault.delay", "lock.acquired"}
        # ... which is exactly what the default level retained
        assert ring_cluster.log.level == RING
        assert ring_cluster.flight.window() == window
        assert list(ring_cluster.log) == \
            [(t, a, k, f) for t, a, k, f in full if VOCABULARY[k] == RING][-RING_CAPACITY:]
        assert traced_cluster.flight.window() == window
        # the trace view is the same at both levels that have one
        assert len(ring_cluster.tracer) == 0
        assert list(traced_cluster.tracer) == list(timed_cluster.tracer)
        assert len(traced_cluster.tracer) > 0 and timed.spans and not traced.spans
        # and recording changed nothing that was measured
        for res in (traced, timed):
            assert res.window_ns == at_ring.window_ns
            assert np.array_equal(res.latencies_ns, at_ring.latencies_ns)
        assert ring_cluster.env.event_count == traced_cluster.env.event_count \
            == timed_cluster.env.event_count


class TestClusterLevel:
    def test_level_is_the_one_asked_for(self):
        assert Cluster(1, audit="off").log.level == RING
        for level in (RING, PROTOCOL, INTERVALS):
            assert Cluster(1, audit="off", obs=level).log.level == level

    @pytest.mark.parametrize("bad", [3, -1, True, None, "intervals"])
    def test_anything_but_a_level_is_refused(self, bad):
        with pytest.raises(ConfigError, match="recording level"):
            Cluster(1, audit="off", obs=bad)

    def test_the_engine_reports_tiebreaks_to_the_cluster_log(self):
        cluster = Cluster(1, audit="off")
        assert cluster.env.emit == cluster.log.emit
        assert Environment().emit is None  # a bare engine has no log
