"""Ring-view tests: the always-on window of the event log — bounded
eviction, windowing and the read-side contracts, plus its wiring into
Cluster."""

from repro.cluster import Cluster
from repro.locks import make_lock
from repro.obs.flight import FlightEvent, RingView
from repro.obs.log import INTERVALS, RING_CAPACITY, EventLog
from repro.sim import Environment


def ring(level=0):
    log = EventLog(Environment(), level)
    return log, RingView(log)


class TestRing:
    def test_capacity_evicts_oldest_in_order(self):
        log, fl = ring()
        for i in range(RING_CAPACITY + 6):
            log.emit("a", "verb.issue", i)
        assert RING_CAPACITY == 1024 and len(fl) == 1024
        assert [e.detail[0] for e in fl.window()[:2]] == [6, 7]
        assert fl.window()[-1].detail == (RING_CAPACITY + 5,)

    def test_window_last_n_oldest_first(self):
        log, fl = ring()
        for i in range(5):
            log.emit("a", "verb.issue", i)
        assert [e.detail[0] for e in fl.window(2)] == [3, 4]
        # last=None and last >= len both return the whole ring
        assert len(fl.window()) == len(fl.window(99)) == 5
        assert fl.window(0) == []

    def test_events_are_timestamped_from_the_sim_clock(self):
        env = Environment()
        log = EventLog(env)
        fl = RingView(log)

        def proc():
            log.emit("p", "lock.wait", "l0", "before")
            yield env.timeout(150.0)
            log.emit("p", "lock.wait", "l0", "after")

        env.process(proc())
        env.run()
        (before, after) = fl.window()
        assert (before.t_ns, after.t_ns) == (0.0, 150.0)

    def test_last_actions_sorted_by_actor(self):
        log, fl = ring()
        log.emit("b", "lock.wait", "l0", "w")
        log.emit("a", "lock.acquired", "l0")
        log.emit("b", "lock.released", "l0")
        last = fl.last_actions()
        assert list(last) == ["a", "b"]
        assert last["b"].kind == "lock.released"

    def test_filtered_by_kind_prefix(self):
        log, fl = ring()
        log.emit("a", "lock.wait", "l0", "budget")
        log.emit("a", "verb.issue", "rCAS", 1)
        log.emit("a", "lock.acquired", "l0")
        assert [e.kind for e in fl.filtered("lock.")] == \
            ["lock.wait", "lock.acquired"]

    def test_clear(self):
        log, fl = ring()
        log.emit("a", "verb.issue", "rCAS", 0)
        log.clear()
        assert len(fl) == 0 and fl.window() == []

    def test_event_accessors(self):
        log, fl = ring()
        log.emit("actor", "verb.issue", "d0", 1)
        (e,) = fl.window()
        assert isinstance(e, FlightEvent)
        assert (e.actor, e.kind, e.detail) == ("actor", "verb.issue", ("d0", 1))

    def test_ring_shows_ring_kinds_with_ring_fields_at_any_level(self):
        """A higher level keeps more in the log; the ring view is the
        same window it would have been at the default level."""
        for level in (0, INTERVALS):
            log, fl = ring(level)
            log.emit("a", "mcs.swap", "l0", "local", 0, "desc[a:local]")
            log.emit("a", "mcs.pass", "l0", "local", 4)
            log.emit("a", "lock.wait", "l0", "budget", "cohort", "local")
            log.emit("a", "span.begin", "verb.rtt", "rCAS", 1, False)
            log.emit("a", "lock.acquired", "l0", "after %d rCAS", 3)
            assert [(e.kind, e.detail) for e in fl.window()] == [
                ("mcs.swap", ("l0", "local", 0, "desc[a:local]")),
                ("lock.wait", ("l0", "budget")),
                ("lock.acquired", ("l0",)),
            ]


class TestClusterWiring:
    def test_protocol_chokepoints_recorded(self):
        cluster = Cluster(2, audit="off")
        lock = make_lock("alock", cluster, 0)
        ctx = cluster.thread_ctx(1, 0)  # remote cohort: issues verbs

        def proc():
            yield from lock.lock(ctx)
            yield from lock.unlock(ctx)

        cluster.env.process(proc())
        cluster.run()
        kinds = [e.kind for e in cluster.flight.window()]
        for expected in ("verb.issue", "mcs.swap", "lock.acquired",
                         "lock.released"):
            assert expected in kinds, kinds
        # acquire precedes release in ring order
        assert kinds.index("lock.acquired") < kinds.index("lock.released")
        # at the default level the protocol-step kinds were dropped, not kept
        assert len(cluster.log) == len(kinds) and len(cluster.tracer) == 0

    def test_poll_verbs_stay_unrecorded(self):
        """r_read/r_write are the spin verbs; reporting them would blow
        the <3% budget and flood the ring (see ThreadContext.r_read)."""
        cluster = Cluster(2, audit="off")
        ctx = cluster.thread_ctx(0, 0)
        ptr = cluster.alloc_on(1, 8)

        def proc():
            yield from ctx.r_write(ptr, 7)
            value = yield from ctx.r_read(ptr)
            assert value == 7

        cluster.env.process(proc())
        cluster.run()
        assert cluster.flight.filtered("verb.") == []
