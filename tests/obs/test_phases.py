"""Phase decomposition: synthetic span streams + real-run exactness."""

import numpy as np

from repro.obs import INTERVALS
from repro.obs.phases import by_kind, extract_operations, phase_summary
from repro.obs.spans import (
    LOCK_ACQUIRE,
    LOCK_RELEASE,
    MCS_QUEUE_WAIT,
    PETERSON_COMPETE,
    Span,
)
from repro.workload.runner import run_workload
from repro.workload.spec import WorkloadSpec


def span(sid, parent, name, actor, t0, t1, **attrs):
    return Span(span_id=sid, parent_id=parent, name=name, actor=actor,
                start_ns=float(t0), end_ns=float(t1), attrs=attrs)


def one_op(actor="t0@n0", lock="l0"):
    """acquire [0,100] with peterson child [40,70] and mcs child [10,30];
    CS [100,180]; release [180,200]."""
    return [
        span(1, 0, LOCK_ACQUIRE, actor, 0, 100,
             lock=lock, kind="alock", outcome="ok", cohort="local"),
        span(2, 1, MCS_QUEUE_WAIT, actor, 10, 30, cohort="local"),
        span(3, 1, PETERSON_COMPETE, actor, 40, 70),
        span(4, 0, LOCK_RELEASE, actor, 180, 200,
             lock=lock, kind="alock", outcome="ok"),
    ]


class TestSynthetic:
    def test_single_op_decomposition(self):
        (op,) = extract_operations(one_op())
        assert op.cross_cohort_ns == 30.0       # peterson child
        assert op.queue_wait_ns == 70.0         # 100 - 30
        assert op.mcs_blocked_ns == 20.0        # mcs child
        assert op.critical_section_ns == 80.0   # 180 - 100
        assert op.release_ns == 20.0
        assert op.end_to_end_ns == 200.0        # tiles [0, 200] exactly
        assert op.acquire_ns == 100.0
        assert op.cohort == "local"
        assert op.kind == "alock"

    def test_failed_acquire_skipped(self):
        spans = one_op()
        spans[0] = span(1, 0, LOCK_ACQUIRE, "t0@n0", 0, 100,
                        lock="l0", kind="alock", outcome="error")
        assert extract_operations(spans) == []

    def test_unpaired_acquire_skipped(self):
        spans = [s for s in one_op() if s.name != LOCK_RELEASE]
        assert extract_operations(spans) == []

    def test_streams_keyed_by_actor_and_lock(self):
        # A release by another actor (or on another lock) must not pair
        # with this acquire.
        spans = one_op()
        spans[-1] = span(4, 0, LOCK_RELEASE, "t1@n0", 180, 200,
                         lock="l0", kind="alock")
        assert extract_operations(spans) == []

    def test_ops_sorted_by_start_time(self):
        spans = one_op(actor="t1@n0")
        late = [
            span(11, 0, LOCK_ACQUIRE, "t0@n0", 500, 600,
                 lock="l0", kind="alock", outcome="ok"),
            span(12, 0, LOCK_RELEASE, "t0@n0", 650, 660,
                 lock="l0", kind="alock"),
        ]
        ops = extract_operations(spans + late)
        assert [op.start_ns for op in ops] == [0.0, 500.0]

    def test_phase_summary_shares_sum_to_one(self):
        ops = extract_operations(one_op())
        s = phase_summary(ops)
        assert s["count"] == 1
        shares = (s["share_queue_wait"] + s["share_cross_cohort"]
                  + s["share_critical_section"] + s["share_release"])
        assert abs(shares - 1.0) < 1e-12
        assert s["mean_end_to_end_ns"] == 200.0

    def test_phase_summary_empty(self):
        assert phase_summary([]) == {"count": 0}

    def test_by_kind_groups(self):
        spans = one_op()
        spans += [
            span(21, 0, LOCK_ACQUIRE, "t0@n0", 300, 310,
                 lock="m0", kind="mcs", outcome="ok"),
            span(22, 0, LOCK_RELEASE, "t0@n0", 320, 330,
                 lock="m0", kind="mcs"),
        ]
        groups = by_kind(extract_operations(spans))
        assert set(groups) == {"alock", "mcs"}
        assert len(groups["alock"]) == 1 and len(groups["mcs"]) == 1


class TestRealRun:
    """The decomposition must reproduce the runner's independently
    measured latencies exactly — the core ext_phases invariant."""

    def run(self, lock_kind):
        spec = WorkloadSpec(
            n_nodes=3, threads_per_node=2, n_locks=4, locality_pct=80.0,
            ops_per_thread=6, cs_ns=400.0, seed=11, lock_kind=lock_kind,
            audit="off")
        return run_workload(spec, obs=INTERVALS)

    def test_alock_sums_match_runner_latencies(self):
        res = self.run("alock")
        ops = extract_operations(res.spans)
        assert len(ops) == res.measured_ops
        got = np.sort(np.array([op.end_to_end_ns for op in ops]))
        want = np.sort(np.asarray(res.latencies_ns, dtype=float))
        assert np.allclose(got, want, rtol=1e-9, atol=1e-6)

    def test_mcs_has_no_cross_cohort_phase(self):
        res = self.run("mcs")
        ops = extract_operations(res.spans)
        assert ops and all(op.cross_cohort_ns == 0.0 for op in ops)
        got = np.sort(np.array([op.end_to_end_ns for op in ops]))
        want = np.sort(np.asarray(res.latencies_ns, dtype=float))
        assert np.allclose(got, want, rtol=1e-9, atol=1e-6)

    def test_alock_cohort_annotation_present(self):
        res = self.run("alock")
        ops = extract_operations(res.spans)
        assert set(op.cohort for op in ops) <= {"local", "remote"}
        assert any(op.cohort == "local" for op in ops)
