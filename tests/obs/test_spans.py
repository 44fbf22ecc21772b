"""Unit tests for the span view: spans are rebuilt by replaying the
event log's begin/end events through one open-span stack per actor."""

import pytest

from repro.obs import Observability, SpanView
from repro.obs import log as event_log
from repro.obs.log import INTERVALS, PROTOCOL, RING, EventLog
from repro.obs.spans import (
    COHORT_HANDOVER,
    LOCK_ACQUIRE,
    MCS_QUEUE_WAIT,
    PETERSON_COMPETE,
    VERB_RTT,
)
from repro.sim import Environment


def make_view(level=INTERVALS):
    env = Environment()
    log = EventLog(env, level)
    return env, log, SpanView(log)


def begin_acquire(log, actor="a", lock="l1"):
    log.emit(actor, "span.begin", LOCK_ACQUIRE, lock, "alock", 0)


def begin_verb(log, actor="a", verb="rCAS"):
    log.emit(actor, "span.begin", VERB_RTT, verb, 1, False)


class TestDisabled:
    """Below the INTERVALS level the begin/end events are dropped by the
    log, so there is nothing to replay."""

    def test_start_returns_none(self):
        _, log, view = make_view(level=PROTOCOL)
        begin_acquire(log)
        log.emit("a", "span.end", LOCK_ACQUIRE, "ok")
        assert len(log) == 0 and view.spans() == []

    def test_end_of_none_is_noop(self):
        """An end with no open span — a step reported outside a timed
        wait, or a begin the log has evicted — is not an interval."""
        _, log, view = make_view()
        log.emit("a", "span.end", VERB_RTT, "ok")
        log.emit("a", "mcs.pass", "l1", "local", 3)
        assert view.spans() == [] and view.open_spans() == []

    def test_annotate_is_noop(self):
        _, log, view = make_view()
        log.emit("a", "mcs.swap", "l1", "local", 0x40, "desc[a:local]")  # nothing open
        # the swap's own wait opens, unannotated by anything outside it
        assert view.spans() == []
        assert [(s.name, s.attrs) for s in view.open_spans()] == [
            (MCS_QUEUE_WAIT, {"cohort": "local"})]

    def test_default_is_disabled(self):
        obs = Observability(Environment())
        begin_acquire(obs.log)
        assert obs.log.level == RING and obs.spans.spans() == []
        # lower views still see nothing of it either
        assert len(obs.log) == 0


class TestRecording:
    def test_span_times_from_sim_clock(self):
        env, log, view = make_view()
        begin_acquire(log)
        env._now = 150.0
        log.emit("a", "span.end", LOCK_ACQUIRE, "ok")
        (sp,) = view.spans()
        assert sp.start_ns == 0.0
        assert sp.end_ns == 150.0
        assert sp.duration_ns == 150.0

    def test_nesting_assigns_parent(self):
        _, log, view = make_view()
        begin_acquire(log)
        begin_verb(log)
        log.emit("a", "span.end", VERB_RTT, "ok")
        log.emit("a", "span.end", LOCK_ACQUIRE, "ok")
        begin_verb(log)
        inner, outer = view.spans()
        (sibling,) = view.open_spans()
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == 0
        assert sibling.parent_id == 0

    def test_actors_have_independent_stacks(self):
        _, log, view = make_view()
        begin_acquire(log, actor="a")
        begin_acquire(log, actor="b")
        a, b = view.open_spans()
        assert (a.actor, b.actor) == ("a", "b")
        assert a.parent_id == 0 and b.parent_id == 0

    def test_span_ids_monotonic_and_unique(self):
        _, log, view = make_view()
        for _ in range(5):
            begin_verb(log)
        ids = [s.span_id for s in view.open_spans()]
        assert ids == [1, 2, 3, 4, 5]

    def test_end_attrs_merge(self):
        _, log, view = make_view()
        begin_acquire(log, lock="l1")
        log.emit("a", "span.end", LOCK_ACQUIRE, "ok")
        (sp,) = view.spans()
        assert sp.attrs == {"lock": "l1", "kind": "alock", "home": 0,
                            "outcome": "ok"}

    def test_annotate_hits_innermost_open(self):
        """Joining a cohort's queue classifies the acquisition it
        happens in (the innermost open span)."""
        _, log, view = make_view()
        begin_verb(log)
        begin_acquire(log)
        log.emit("a", "mcs.swap", "l1", "remote", 0x40, "desc[a:remote]")
        outer, inner, wait = view.open_spans()
        assert inner.attrs["cohort"] == "remote" and "cohort" not in outer.attrs
        assert wait.name == MCS_QUEUE_WAIT and wait.parent_id == inner.span_id

    def test_protocol_steps_are_the_inner_intervals(self):
        """A timed lock.wait — or an ALock swap, which opens the wait its
        outcome decides — opens the wait's span; the step that ends the
        wait closes it and carries its result."""
        env, log, view = make_view()
        log.emit("a", "mcs.swap", "l1", "local", 0, "desc[a:local]")  # leader
        log.emit("a", "peterson.acquired", "l1", "local", "remote-unlocked")
        log.emit("a", "mcs.swap", "l1", "local", 0x40, "desc[a:local]")  # follower
        log.emit("a", "mcs.passed", "l1", "local", 5)
        log.emit("a", "lock.wait", "l1", "peterson-remote", "cohort", "remote")
        env._now = 40.0
        log.emit("a", "peterson.acquired", "l1", "remote", "not-victim", 2)
        log.emit("a", "lock.wait", "l1", "budget", "cohort", "local")
        log.emit("a", "mcs.passed", "l1", "local", 4)
        log.emit("a", "lock.wait", "l1", "next", "cohort", "local")
        log.emit("a", "mcs.pass", "l1", "local", 3)
        log.emit("a", "lock.wait", "l1", "locked", "loopback_poll", True)
        log.emit("a", "lock.passed", "l1")
        log.emit("a", "lock.wait", "l1", "next")          # untimed: no span
        assert [(s.name, s.attrs) for s in view.spans()] == [
            (PETERSON_COMPETE, {"cohort": "local", "via": "remote-unlocked"}),
            (MCS_QUEUE_WAIT, {"cohort": "local", "budget": 5}),
            (PETERSON_COMPETE, {"cohort": "remote", "via": "not-victim",
                                "spins": 2}),
            (MCS_QUEUE_WAIT, {"cohort": "local", "budget": 4}),
            (COHORT_HANDOVER, {"cohort": "local", "budget": 3}),
            (MCS_QUEUE_WAIT, {"loopback_poll": True}),
        ]
        assert view.spans()[2].duration_ns == 40.0
        assert view.open_spans() == []

    def test_ending_outer_closes_abandoned_inner(self):
        """An exception may unwind past an open child; ending the parent
        closes the child too (marked abandoned) so the stack stays
        consistent."""
        _, log, view = make_view()
        begin_acquire(log)
        begin_verb(log)
        log.emit("a", "span.end", LOCK_ACQUIRE, "error")
        inner, outer = view.spans()
        assert inner.finished and inner.name == VERB_RTT
        assert inner.attrs["outcome"] == "abandoned"
        assert outer.attrs["outcome"] == "error"
        assert view.open_spans() == []

    def test_duration_of_open_span_raises(self):
        _, log, view = make_view()
        begin_acquire(log)
        (sp,) = view.open_spans()
        with pytest.raises(ValueError):
            _ = sp.duration_ns

    def test_capacity_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(event_log, "LOG_CAPACITY", 6)
        _, log, view = make_view()
        for i in range(5):
            begin_verb(log, verb=i)
            log.emit("a", "span.end", VERB_RTT, "ok")
        kept = [s.attrs["verb"] for s in view.spans()]
        assert kept == [2, 3, 4]
        assert log.dropped == 4  # events, i.e. two whole spans

    def test_clear(self):
        _, log, view = make_view()
        begin_verb(log)
        log.emit("a", "span.end", VERB_RTT, "ok")
        begin_verb(log)  # left open
        log.clear()
        assert view.spans() == [] and view.open_spans() == []
