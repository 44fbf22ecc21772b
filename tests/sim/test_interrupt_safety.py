"""Interrupt-safety of resource admission.

Regression suite for the slot-leak the fault layer exposed: a process
interrupted while waiting in ``Resource.request`` left its request event
in the queue (or, worse, kept a granted slot), so capacity drained away
with every verb timeout until the NIC pipeline wedged.

The contract for a killed verb, stated once (``RdmaNetwork._round_trip``):
a PCIe/TX booking of an op killed mid-flight *stands* — those stages are
computed FIFOs, the NIC has fetched the WQE and a requester-side timeout
does not un-process it — so the only thing a dead op can hold is the RX
slot, and ``Resource.cancel`` returns it whether the grant was taken in
place, still queued, or handed over in the tick the interrupt landed.
"""

import pytest

from repro.sim import Environment, Interrupt, Resource, Timeout


@pytest.fixture()
def env():
    return Environment()


class TestCancel:
    def test_cancel_queued_request_removes_it(self, env):
        res = Resource(env, capacity=1)
        holder = res.request()          # granted immediately
        assert holder.triggered
        waiting = res.request()
        assert not waiting.triggered
        assert res.cancel(waiting) is False
        assert res.queue_length == 0
        # the slot was never ours, so nothing was released
        assert res.in_use == 1

    def test_cancel_granted_request_releases_slot(self, env):
        res = Resource(env, capacity=1)
        req = res.request()
        assert req.triggered
        assert res.cancel(req) is True
        assert res.in_use == 0

    def test_interrupted_waiter_does_not_leak_slot(self, env):
        """A waiter interrupted mid-request must leave capacity intact
        for everyone behind it."""
        res = Resource(env, capacity=1)
        order = []

        def holder():
            yield from res.acquire()
            yield env.timeout(100)
            res.release()

        def doomed():
            try:
                yield from res.acquire()
            except Interrupt:
                order.append(("interrupted", env.now))
                return
            res.release()  # pragma: no cover - must not get the slot

        def patient():
            yield from res.acquire()
            order.append(("granted", env.now))
            res.release()

        env.process(holder())
        victim = env.process(doomed())

        def assassin():
            yield env.timeout(50)
            victim.interrupt("stop waiting")

        env.process(assassin())
        env.process(patient())
        env.run()
        assert order == [("interrupted", 50), ("granted", 100)]
        assert res.in_use == 0
        assert res.queue_length == 0

    def test_interrupt_racing_same_timestep_grant(self, env):
        """The nasty case: release() hands the slot to the waiter and the
        interrupt lands in the same timestep, before the waiter resumes.
        The waiter's cleanup must give the already-granted slot back."""
        res = Resource(env, capacity=1)

        def holder():
            yield from res.acquire()
            yield env.timeout(50)
            res.release()               # grant hands off to victim at t=50

        def doomed():
            try:
                yield from res.acquire()
            except Interrupt:
                return
            res.release()  # pragma: no cover

        env.process(holder())
        victim = env.process(doomed())

        def assassin():
            yield env.timeout(50)       # same timestep as the handoff
            victim.interrupt("too late")

        env.process(assassin())
        env.run()
        assert res.in_use == 0
        assert res.queue_length == 0

    def test_serve_releases_only_when_granted(self, env):
        """serve() interrupted during its service phase releases the slot;
        interrupted during admission it must NOT release someone else's."""
        res = Resource(env, capacity=1)

        def served():
            try:
                yield from res.serve(100)
            except Interrupt:
                pass

        p = env.process(served())

        def interrupt_mid_service():
            yield env.timeout(40)       # inside the service timeout
            p.interrupt("abort")

        env.process(interrupt_mid_service())
        env.run()
        assert res.in_use == 0
        assert res.total_served == 1


class TestFreeSlotGrant:
    """serve()/acquire() take a free slot in place — no grant event, no
    zero-delay slot: the requester is in its hold before anything else
    is dispatched — and an interrupt in the hold hands the slot back."""

    @pytest.mark.parametrize("method", ["serve", "acquire"])
    def test_a_free_slot_costs_no_schedule_slot(self, env, method):
        res = Resource(env, capacity=1)
        seen = []

        def client():
            if method == "serve":
                yield from res.serve(100)
            else:
                yield from res.acquire()
                seen.append((env.now, env.event_count))
                yield 100.0
                res.release()

        proc = env.process(client())
        env.step()                      # boot: slot taken, hold begun
        assert res.in_use == 1 and res.total_served == 1
        assert res.queue_length == 0
        env.run()
        assert proc.ok and res.in_use == 0 and env.now == 100.0
        # boot, the hold, the finished process: nothing for the grant
        assert env.event_count == 3
        if method == "acquire":
            assert seen == [(0.0, 1)]   # still inside the boot dispatch

    @pytest.mark.parametrize("method", ["serve", "acquire"])
    def test_interrupt_on_the_free_slot_grant_returns_the_slot(self, env, method):
        """Interrupted in the very tick the slot was taken in place."""
        res = Resource(env, capacity=1)
        outcome = []

        def doomed():
            try:
                if method == "serve":
                    yield from res.serve(100)
                else:
                    yield from res.acquire()
                    try:
                        yield 100.0
                    finally:
                        res.release()
            except Interrupt:
                outcome.append(("interrupted", env.now, res.in_use))

        victim = env.process(doomed())
        env.step()                      # boot the victim: slot taken in place
        assert res.in_use == 1 and res.total_served == 1
        victim.interrupt("too early")
        env.run()
        assert outcome == [("interrupted", 0.0, 0)]
        assert res.in_use == 0 and res.queue_length == 0
        assert res.total_served == 1

    def test_interrupted_free_slot_grant_admits_the_next_waiter(self, env):
        res = Resource(env, capacity=1)
        order = []

        def doomed():
            try:
                yield from res.serve(100)
            except Interrupt:
                order.append(("interrupted", env.now))

        def patient():
            yield from res.serve(10)
            order.append(("served", env.now))

        victim = env.process(doomed())
        env.process(patient())          # queues behind the victim
        env.step()                      # victim takes the slot in place
        env.step()                      # patient queues
        assert res.queue_length == 1
        victim.interrupt("go away")
        env.run()
        assert order == [("interrupted", 0.0), ("served", 10.0)]
        assert res.in_use == 0 and res.queue_length == 0
        assert res.total_served == 2

    def test_interrupt_mid_service_after_free_slot_grant(self, env):
        res = Resource(env, capacity=2)
        done = []

        def served(tag):
            try:
                yield from res.serve(100)
                done.append(tag)
            except Interrupt:
                done.append(f"{tag}-interrupted@{env.now}")

        a = env.process(served("a"))
        env.process(served("b"))

        def assassin():
            yield 40.0                  # both are inside their service sleep
            assert res.in_use == 2
            a.interrupt("abort")

        env.process(assassin())
        env.run()
        assert done == ["a-interrupted@40.0", "b"]
        assert res.in_use == 0 and res.total_served == 2

    def test_free_and_queued_grants_keep_request_order(self, env):
        """Taking a free slot in place does not let anyone overtake:
        arrivals are served in arrival order."""
        res = Resource(env, capacity=1)
        order = []

        def client(tag):
            yield from res.serve(5)
            order.append((tag, env.now))

        for tag in "abc":
            env.process(client(tag))
        env.run()
        assert order == [("a", 5.0), ("b", 10.0), ("c", 15.0)]
        assert res.total_served == 3 and res.peak_queue == 2


class TestInterruptedVerbPipeline:
    def test_nic_pipeline_survives_interrupted_receives(self, env):
        """Drive many interrupted waits through one capacity-1 resource
        (the NIC RX model): capacity must never drift."""
        res = Resource(env, capacity=1)
        completed = []

        def worker(i):
            try:
                yield from res.serve(10)
            except Interrupt:
                return
            completed.append(i)

        procs = [env.process(worker(i)) for i in range(10)]

        def chaos():
            # kill every odd worker while it queues or serves
            for i in range(1, 10, 2):
                yield env.timeout(7)
                if procs[i].is_alive:
                    procs[i].interrupt("drop")

        env.process(chaos())
        env.run()
        assert res.in_use == 0
        assert res.queue_length == 0
        # the survivors all got through
        assert completed and all(i % 2 == 0 for i in completed)


class TestStackedInterrupts:
    """An interrupt's kick is delivered later in the tick; by then an
    earlier kick may have resumed the process and it has parked again.
    Delivery must withdraw it from *that* wait, or the wait's own
    wake-up resumes it a second time (``scheduled twice``)."""

    @staticmethod
    def victim(env, form, log):
        for i in range(4):
            try:
                yield 100.0 if form == "sleep" else Timeout(env, 100.0)
                log.append((env.now, i, "woke"))
            except Interrupt as intr:
                log.append((env.now, i, intr.cause))

    @pytest.mark.parametrize("form", ["sleep", "timeout"])
    def test_two_interrupts_in_one_tick(self, env, form):
        log = []
        p = env.process(self.victim(env, form, log))

        def poker():
            yield 10.0
            p.interrupt("a")
            p.interrupt("b")

        env.process(poker())
        env.run()
        # both delivered, and each later iteration wakes exactly once
        assert log == [(10.0, 0, "a"), (10.0, 1, "b"),
                       (110.0, 2, "woke"), (210.0, 3, "woke")]
        assert p.ok

    @pytest.mark.parametrize("form", ["sleep", "timeout"])
    def test_self_interrupt_lands_on_the_next_wait(self, env, form):
        log = []

        def body():
            env.active_process.interrupt("self")
            yield from self.victim(env, form, log)

        p = env.process(body())
        env.run()
        assert log == [(0.0, 0, "self"), (100.0, 1, "woke"),
                       (200.0, 2, "woke"), (300.0, 3, "woke")]
        assert p.ok

    def test_kick_for_a_finished_process_is_dropped(self, env):
        def body():
            try:
                yield 5.0
            except Interrupt:
                return "interrupted"

        p = env.process(body())

        def poker():
            yield 1.0
            p.interrupt("a")   # ends the process ...
            p.interrupt("b")   # ... before this one is delivered

        env.process(poker())
        env.run()
        assert p.ok and p.value == "interrupted"


class TestAdmit:
    """``admit()`` states the admission protocol once: it returns the
    grant to wait for — ``None`` when the slot is already the caller's
    — and ``cancel()`` takes that value back whatever became of it."""

    @staticmethod
    def hold(res, service, log, env):
        """The interrupt-safe hold exactly as the NIC round trip writes
        it for the RX pipeline."""
        grant = res.admit()
        try:
            if grant is not None:
                yield grant
            yield service
        except BaseException:
            log.append(("cancelled", env.now, res.cancel(grant)))
            raise
        res.release()
        log.append(("served", env.now))

    def test_free_slot_is_taken_in_place(self, env):
        res = Resource(env, capacity=1)
        assert res.admit() is None
        assert res.in_use == 1 and res.total_served == 1
        assert res.queue_length == 0

    def test_busy_resource_returns_the_queued_grant(self, env):
        res = Resource(env, capacity=1)
        res.admit()
        grant = res.admit()
        assert not grant.triggered
        assert res.queue_length == 1 and res.peak_queue == 1
        assert res.in_use == 1 and res.total_served == 1
        res.release()                   # handed over, occupancy unchanged
        assert grant.triggered and res.in_use == 1
        assert res.total_served == 2

    def test_cancel_in_place_grant_releases_the_slot(self, env):
        res = Resource(env, capacity=2)
        assert res.cancel(res.admit()) is True
        assert res.in_use == 0

    def test_cancel_in_place_grant_admits_the_next_waiter(self, env):
        res = Resource(env, capacity=1)
        mine = res.admit()
        waiter = res.admit()
        assert res.cancel(mine) is True
        assert waiter.triggered and res.in_use == 1

    def test_cancel_queued_grant_withdraws_it(self, env):
        res = Resource(env, capacity=1)
        res.admit()
        queued = res.admit()
        assert res.cancel(queued) is False
        assert res.queue_length == 0 and res.in_use == 1
        res.release()
        assert not queued.triggered     # never succeeded for a dead waiter
        assert res.in_use == 0

    def test_cancel_of_a_grant_handed_over_in_the_interrupt_tick(self, env):
        """release() hands the slot to the queued waiter and the
        interrupt lands in the same tick, before the waiter resumes:
        the grant is triggered, so cancel() must give the slot back."""
        res = Resource(env, capacity=1)
        log = []
        env.process(self.hold(res, 50.0, log, env))
        victim = env.process(self.hold(res, 10.0, log, env))

        def assassin():
            yield 10.0
            yield 40.0                  # t=50, after the holder's wake-up
            assert res.in_use == 1 and res.queue_length == 0   # handed over
            victim.interrupt("too late")

        killer = env.process(assassin())
        env.run()
        assert killer.ok, killer.value
        assert log == [("served", 50.0), ("cancelled", 50.0, True)]
        assert res.in_use == 0 and res.queue_length == 0
        assert res.total_served == 2

    @pytest.mark.parametrize("when", [0.0, 5.0, 25.0])
    def test_hold_interrupted_in_every_phase(self, env, when):
        """Queued (t=5), in the tick the slot was taken in place (t=0)
        and inside the hold (t=25, after the t=20 hand-over)."""
        res = Resource(env, capacity=1)
        log = []
        if when:
            env.process(self.hold(res, 20.0, log, env))
        victim = env.process(self.hold(res, 100.0, log, env))
        follower = env.process(self.hold(res, 1.0, log, env))

        def assassin():
            yield when
            victim.interrupt("stop")

        env.process(assassin())
        env.run()
        assert follower.ok and not victim.ok
        assert res.in_use == 0 and res.queue_length == 0
        granted_slot = when != 5.0
        assert ("cancelled", when, granted_slot) in log
        # the follower is served as soon as the slot is free
        assert log[-1] == ("served", max(when, 20.0 if when else 0.0) + 1.0)




# -- the NIC round trip: computed PCIe/TX, one evented hold (RX) --------

from repro.cluster import Cluster                      # noqa: E402
from repro.memory import ptr_addr                      # noqa: E402

_VERBS = ("rRead", "rWrite", "rCAS", "rFAA")
_INITIAL = 5
#: the word after the verb landed (rCAS 5->9, rFAA 5+3, rWrite 7)
_LANDED = {"rRead": 5, "rWrite": 7, "rCAS": 9, "rFAA": 8}


def _verb(net, verb, node, thread, ptr):
    if verb == "rRead":
        return net.r_read(node, thread, ptr)
    if verb == "rWrite":
        return net.r_write(node, thread, ptr, 7)
    if verb == "rCAS":
        return net.r_cas(node, thread, ptr, _INITIAL, 9, actor="ghost")
    return net.r_faa(node, thread, ptr, 3, actor="ghost")


def _stepper(gen, k, at_suspension):
    """Process body that drives ``gen`` by hand (``yield from`` cannot
    count) and calls ``at_suspension()`` once ``gen`` is parked at its
    ``k``-th suspension; returns the number of suspensions."""
    i = 0
    value = exc = None
    while True:
        try:
            target = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration:
            return i
        if i == k and at_suspension() == "closed":
            return i
        i += 1
        try:
            value, exc = (yield target), None
        except BaseException as e:
            value, exc = None, e


def _build(path):
    cluster = Cluster(2, seed=0, audit="record")
    target = 0 if path == "loopback" else 1
    ptr = cluster.alloc_on(target, 8)
    cluster.regions[target].write(ptr_addr(ptr), _INITIAL)
    return cluster, target, ptr


def _follower_rtt(cluster, ptr):
    """Round-trip time of a fresh thread's rRead issued now."""
    env = cluster.env
    t0 = env.now
    follower = env.process(cluster.network.r_read(0, 9, ptr))
    env.run()
    assert follower.ok, follower.value
    return env.now - t0


def _undisturbed_rtt(path):
    """The same rRead on NICs nothing else has touched."""
    cluster, _target, ptr = _build(path)
    return _follower_rtt(cluster, ptr)


class TestRoundTripKilledAtEverySuspension:
    """Kill the flat traversal at each of its suspension points — by
    ``interrupt()`` and by ``close()`` — and check nothing is left
    behind: no held RX slot, no queued grant, no open RMW window, no
    half-applied commit, and a NIC that serves the next verb as an
    undisturbed one would."""

    def run_one(self, verb, path, load, how, k):
        """Returns info for a ghost killed at its ``k``-th suspension
        (``k=-1``: never)."""
        cluster, target, ptr = _build(path)
        env, net = cluster.env, cluster.network
        receivers = [nic.rx for nic in net.nics]
        info = {"probes": [], "window_open": False, "killed_at": None}
        others = []
        if load == "queued":
            # traffic ahead of the ghost on every stage it crosses, and
            # the target's RX pipeline busy until all of it has queued
            others = [env.process(net.r_read(0, t, ptr)) for t in (1, 2, 3)]
            others.append(env.process(receivers[target].serve(6_000.0)))

        def probe(rx):
            yield from rx.acquire()
            info["probes"].append((rx.name, env.now))
            rx.release()

        def at_suspension():
            info["killed_at"] = env.now
            info["window_open"] = bool(cluster.auditor._windows)
            if load == "free":
                # alone on idle NICs, an RX slot in use is the ghost's:
                # queue a requester behind it
                info["held"] = [rx.name for rx in receivers if rx.in_use]
                for rx in receivers:
                    if rx.in_use:
                        env.process(probe(rx))
            if how == "close":
                ghost_gen.close()
                return "closed"
            env.active_process.interrupt("kill")

        ghost_gen = _verb(net, verb, 0, 0, ptr)
        ghost = env.process(_stepper(ghost_gen, k, at_suspension))
        env.run()
        # -- nothing leaks, whatever k was
        for rx in receivers:
            assert rx.in_use == 0 and rx.queue_length == 0, (rx.name, k)
        assert cluster.auditor._windows == {}, k
        assert cluster.auditor.consistency_errors == 0
        assert all(p.ok for p in others), k
        info["word"] = cluster.regions[target].peek(ptr_addr(ptr))
        info["ghost"] = ghost
        # -- and the NIC is as good as new once what the dead op booked
        # on PCIe/TX has been served, like anyone else's
        env.run(until=env.now + 2_000.0)
        info["follower_rtt"] = _follower_rtt(cluster, ptr)
        return info

    @pytest.mark.parametrize("how", ["interrupt", "close"])
    @pytest.mark.parametrize("load", ["free", "queued"])
    @pytest.mark.parametrize("path", ["loopback", "fabric"])
    @pytest.mark.parametrize("verb", _VERBS)
    def test_kill_at_every_suspension(self, verb, path, load, how):
        whole = self.run_one(verb, path, load, how, -1)
        n = whole["ghost"].value
        # one sleep per stage boundary (pcie; tx + transit; rx; dma +
        # return; completion), the RX grant when queued, the window
        expected = 5 + (load == "queued") + (verb in ("rCAS", "rFAA"))
        assert n == expected and whole["word"] == _LANDED[verb]
        undisturbed = _undisturbed_rtt(path)
        assert whole["follower_rtt"] == undisturbed
        windows_seen = holds_seen = 0
        for k in range(n):
            info = self.run_one(verb, path, load, how, k)
            ghost = info["ghost"]
            if how == "interrupt":
                assert not ghost.ok and isinstance(ghost.value, Interrupt)
            else:
                assert ghost.ok and ghost.value == k
            # no half-applied commit: the word is the old or the new value
            assert info["word"] in (_INITIAL, _LANDED[verb])
            if info["window_open"]:
                # killed between the RMW's read and its write-back
                windows_seen += 1
                assert info["word"] == _INITIAL
            if load == "free":
                # the requester queued behind the ghost's RX slot was
                # granted at the instant the ghost died
                holds_seen += len(info["held"])
                assert info["probes"] == [
                    (name, info["killed_at"]) for name in info["held"]], k
            assert info["follower_rtt"] == undisturbed, k
        assert windows_seen == (verb in ("rCAS", "rFAA"))
        if load == "free":
            # RX is held in its service sleep and, for an RMW, its window
            assert holds_seen == 1 + (verb in ("rCAS", "rFAA"))

    def test_a_killed_ops_tx_booking_stands(self):
        """The op is killed while it waits behind its own TX booking;
        a verb issued by the next thread at that instant still queues
        behind the dead op's service — a requester-side timeout does not
        un-process a WQE the NIC has fetched."""
        cluster, _target, ptr = _build("fabric")
        env, net = cluster.env, cluster.network
        nic = net.nics[0]
        crossing, cold_tx = nic._pcie_crossing_ns, (
            nic._tx_service_ns + nic.qpc.miss_penalty_ns)
        rtt = {}

        def follower():
            t0 = env.now
            yield from net.r_read(0, 1, ptr)
            rtt["follower"] = env.now - t0

        def at_suspension():
            # parked on `tx.transit(...) + fabric`, TX booked from now
            assert env.now == crossing
            env.process(follower())
            env.active_process.interrupt("kill")

        ghost = env.process(_stepper(net.r_read(0, 0, ptr), 1, at_suspension))
        env.run()
        assert not ghost.ok and nic.tx.total_served == 2
        undisturbed = _undisturbed_rtt("fabric")
        # the follower reaches TX one crossing after the ghost did and
        # waits out the rest of the ghost's (cold-QPC) service
        assert rtt["follower"] == undisturbed + (cold_tx - crossing)
        assert net.nics[1].rx_ops == 1      # the ghost never arrived

    def test_a_dead_rmw_does_not_poison_the_word(self):
        """After an rCAS dies inside its window a local write to the
        word is not a Table-1 violation: the window died with it."""
        cluster, target, ptr = _build("fabric")
        env, net = cluster.env, cluster.network
        ghost = env.process(net.r_cas(0, 0, ptr, _INITIAL, 9, actor="ghost"))
        while not cluster.auditor._windows:
            env.step()
        ghost.interrupt("kill")
        env.run()
        assert not ghost.ok and cluster.auditor._windows == {}
        ctx = cluster.thread_ctx(1, 0)
        writer = env.process(ctx.write(ptr, 11))
        env.run()
        assert writer.ok and cluster.auditor.violations == []
        assert cluster.regions[target].peek(ptr_addr(ptr)) == 11
