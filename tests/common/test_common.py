"""Tests for ids, RNG streams, and the protocol trace view."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigError
from repro.common.ids import (
    _THREADS_PER_NODE_MAX,
    make_global_thread_id,
    split_global_thread_id,
)
from repro.common.rng import RngStreams, derive_seed
from repro.obs import log as event_log
from repro.obs.log import PROTOCOL, RING, EventLog
from repro.obs.trace import TraceEvent, TraceView
from repro.sim import Environment


class TestGlobalThreadIds:
    def test_never_zero(self):
        assert make_global_thread_id(0, 0) == 1

    @given(node=st.integers(0, 31), thread=st.integers(0, 100))
    def test_round_trip(self, node, thread):
        gid = make_global_thread_id(node, thread)
        assert split_global_thread_id(gid) == (node, thread)

    @given(a=st.tuples(st.integers(0, 31), st.integers(0, 100)),
           b=st.tuples(st.integers(0, 31), st.integers(0, 100)))
    def test_injective(self, a, b):
        if a != b:
            assert make_global_thread_id(*a) != make_global_thread_id(*b)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make_global_thread_id(-1, 0)

    def test_packing_bound_enforced(self):
        with pytest.raises(ValueError):
            make_global_thread_id(0, _THREADS_PER_NODE_MAX)

    def test_split_rejects_zero(self):
        with pytest.raises(ValueError):
            split_global_thread_id(0)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(42, "workload", 0, 3) == derive_seed(42, "workload", 0, 3)

    def test_key_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_key_parts_not_concatenated(self):
        """("ab", "c") and ("a", "bc") must differ (separator byte)."""
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_64_bit_range(self):
        s = derive_seed(7, "x")
        assert 0 <= s < 2**64

    def test_non_primitive_key_part_rejected(self):
        """repr() of arbitrary objects can embed memory addresses
        (`<object object at 0x7f...>`), which would silently break
        cross-process seed stability — reject them loudly instead."""
        class Opaque:
            pass

        for bad in (object(), Opaque(), [1, 2], {"a": 1}, {1, 2},
                    np.zeros(2)):
            with pytest.raises(ConfigError, match="non-primitive"):
                derive_seed(0, bad)

    def test_non_primitive_inside_tuple_rejected(self):
        with pytest.raises(ConfigError, match="non-primitive"):
            derive_seed(0, ("outer", (1, object())))

    def test_primitives_and_nested_tuples_accepted(self):
        s = derive_seed(3, "a", 1, 2.5, b"raw", True, None, ("x", (4, 5)))
        assert 0 <= s < 2**64

    def test_numpy_scalars_normalise_to_python(self):
        """numpy's scalar reprs changed between 1.x and 2.x; seeds must
        not depend on the numpy version, so np scalars hash like their
        Python equivalents."""
        assert derive_seed(0, np.int64(7)) == derive_seed(0, 7)
        assert derive_seed(0, np.float64(2.5)) == derive_seed(0, 2.5)

    def test_rejection_is_stable_not_address_dependent(self):
        """Two distinct instances fail identically — nothing about the
        object (like its address) leaks into behaviour."""
        with pytest.raises(ConfigError):
            derive_seed(1, object())
        with pytest.raises(ConfigError):
            derive_seed(1, object())


class TestRngStreams:
    def test_cached_per_key(self):
        streams = RngStreams(1)
        assert streams.get("a", 1) is streams.get("a", 1)
        assert streams.get("a", 1) is not streams.get("a", 2)

    def test_independent_streams(self):
        streams = RngStreams(1)
        a = streams.get("x").integers(0, 1 << 30, 20).tolist()
        b = streams.get("y").integers(0, 1 << 30, 20).tolist()
        assert a != b

    def test_reproducible_across_instances(self):
        a = RngStreams(9).get("w", 0).integers(0, 1 << 30, 10).tolist()
        b = RngStreams(9).get("w", 0).integers(0, 1 << 30, 10).tolist()
        assert a == b

    def test_fork_independence(self):
        parent = RngStreams(5)
        child = parent.fork("sub")
        a = parent.get("k").integers(0, 1 << 30, 10).tolist()
        b = child.get("k").integers(0, 1 << 30, 10).tolist()
        assert a != b


class TestTraceBuffer:
    """The trace view over the cluster's event log (it used to be a
    buffer of its own; the ids are kept so the history stays
    comparable)."""

    @staticmethod
    def traced(level=PROTOCOL):
        log = EventLog(Environment(), level)
        return log, TraceView(log)

    def test_disabled_by_default(self):
        log, tracer = self.traced(level=RING)
        log.emit("t", "mcs.pass", "l0", "local", 4)    # dropped by the log
        log.emit("t", "lock.acquired", "l0")           # kept, for the ring
        assert len(log) == 1 and len(tracer) == 0

    def test_emit_and_iterate(self):
        log, tracer = self.traced()
        log.emit("t0", "lock.acquired", "l0")
        log.emit("t1", "lock.released", "l0")
        events = list(tracer)
        assert [e.kind for e in events] == ["cs.enter", "cs.exit"]
        assert all(isinstance(e, TraceEvent) for e in events)

    def test_details_are_rendered_on_the_read_side(self):
        """The lock code reports raw fields; every legacy detail string
        comes out of the view's per-kind table."""
        log, tracer = self.traced()
        log.emit("t", "mcs.swap", "l0", "remote", 0, "desc[t:remote]")  # leader
        log.emit("t", "mcs.swap", "l0", "local", 0x40, "desc[t:local]")
        log.emit("t", "lock.wait", "l0", "peterson-remote", "cohort", "remote")
        log.emit("t", "lock.wait", "l0", "budget", "cohort", "remote")  # untraced
        log.emit("t", "peterson.acquired", "l0", "remote", "not-victim", 3)
        log.emit("t", "peterson.acquired", "l0", "local", "remote-unlocked")
        log.emit("t", "mcs.passed", "l0", "local", 4)
        log.emit("t", "mcs.pass", "l0", "local", 3)
        log.emit("t", "mcs.release", "l0", "local", "tail cleared")
        log.emit("t", "lock.acquired", "l0", "after %d rCAS", 2)
        log.emit("t", "lock.acquired", "l0", "(rpc)")
        log.emit("t", "tas.spin", "l0", 7)             # a user lock's own kind
        assert [(e.kind, e.detail) for e in tracer] == [
            ("mcs.swap", "l0 cohort=REMOTE prev=rdma_ptr(NULL)"),
            ("peterson.enter", "l0 cohort=REMOTE"),
            ("mcs.swap", "l0 cohort=LOCAL prev=rdma_ptr(n0:0x40)"),
            ("peterson.enter", "l0 cohort=REMOTE"),
            ("peterson.acquired", "l0 cohort=REMOTE via not-victim after 3 spins"),
            ("peterson.acquired", "l0 cohort=LOCAL via remote-unlocked"),
            ("mcs.passed", "l0 cohort=LOCAL budget=4"),
            ("mcs.pass", "l0 cohort=LOCAL -> budget 3"),
            ("mcs.release", "l0 cohort=LOCAL tail cleared"),
            ("cs.enter", "l0 after 2 rCAS"),
            ("cs.enter", "l0 (rpc)"),
            ("tas.spin", "l0 7"),
        ]

    def test_capacity_ring(self, monkeypatch):
        monkeypatch.setattr(event_log, "LOG_CAPACITY", 3)
        log, tracer = self.traced()
        for i in range(5):
            log.emit("t", "lock.acquired", f"l{i}")
        assert [e.detail for e in tracer] == ["l2", "l3", "l4"]

    def test_filtered_by_actor_and_kind(self):
        log, tracer = self.traced()
        log.emit("a", "mcs.swap", "l0", "local", 0x40, "desc[a:local]")
        log.emit("b", "mcs.pass", "l0", "local", 1)
        log.emit("a", "peterson.acquired", "l0", "local", "not-victim")
        assert len(tracer.filtered(actor="a")) == 2
        assert len(tracer.filtered(kind="mcs")) == 2
        assert len(tracer.filtered(actor="a", kind="mcs")) == 1

    def test_filtered_actor_prefix_match(self):
        log, tracer = self.traced()
        log.emit("t0@n0", "lock.acquired", "l0")
        log.emit("t0@n1", "lock.acquired", "l1")
        log.emit("t1@n0", "lock.acquired", "l2")
        # prefix semantics: all of node-thread t0's events, any node
        assert len(tracer.filtered(actor="t0")) == 2
        assert len(tracer.filtered(actor="t0@n1")) == 1
        assert len(tracer.filtered(actor="t9")) == 0

    def test_capacity_enforced_by_deque(self, monkeypatch):
        # the log is a bounded deque, not a manually trimmed list; what
        # it evicts is accounted for
        monkeypatch.setattr(event_log, "LOG_CAPACITY", 2)
        log, tracer = self.traced()
        assert log._events.maxlen == 2
        for i in range(4):
            log.emit("t", "lock.acquired", f"l{i}")
        assert [e.detail for e in tracer] == ["l2", "l3"]
        assert (len(log), log.kept, log.dropped) == (2, 4, 2)

    def test_view_follows_the_log(self):
        """The rendered list is cached, but never stale."""
        log, tracer = self.traced()
        log.emit("t", "lock.acquired", "l0")
        assert len(tracer) == 1 and len(tracer) == 1
        log.emit("t", "lock.released", "l0")
        assert [e.kind for e in tracer] == ["cs.enter", "cs.exit"]

    def test_clear(self):
        log, tracer = self.traced()
        log.emit("t", "lock.acquired", "l0")
        assert len(tracer) == 1
        log.clear()
        assert len(tracer) == 0

    def test_event_is_frozen(self):
        ev = TraceEvent(1.0, "t", "k")
        with pytest.raises(AttributeError):
            ev.time = 2.0
