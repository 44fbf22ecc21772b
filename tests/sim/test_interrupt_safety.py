"""Interrupt-safety of resource admission.

Regression suite for the slot-leak the fault layer exposed: a process
interrupted while waiting in ``Resource.request`` left its request event
in the queue (or, worse, kept a granted slot), so capacity drained away
with every verb timeout until the NIC pipeline wedged.
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
    """serve()/acquire() take a free slot in place and hold the grant's
    schedule position with a zero-delay sleep; an interrupt in that
    window, or later mid-service, must hand the slot back."""

    @pytest.mark.parametrize("method", ["serve", "acquire"])
    def test_interrupt_on_the_free_slot_grant_returns_the_slot(self, env, method):
        res = Resource(env, capacity=1)
        outcome = []

        def doomed():
            try:
                if method == "serve":
                    yield from res.serve(100)
                else:
                    yield from res.acquire()
                    res.release()  # pragma: no cover - never granted
            except Interrupt:
                outcome.append(("interrupted", env.now, res.in_use))

        victim = env.process(doomed())
        env.step()                      # boot the victim: slot taken in place
        # the grant's slot is still in the schedule: the victim holds the
        # resource but has not been resumed with it
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
        """A free-slot grant occupies the same schedule position the
        grant event used to: arrivals are served in arrival order."""
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
