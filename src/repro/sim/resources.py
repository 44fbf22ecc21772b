"""Queued resources for the simulator.

Two models of a FIFO server pool, for the NIC stages where the
*queueing delay under load* is exactly the congestion phenomenon the
paper discusses (§2):

* :class:`Resource` — evented: a requester is granted a slot, holds it
  for as long as it likes, and releases it.  Needed where the hold is
  not known at arrival or can be cut short — the NIC RX pipeline, whose
  service time is judged at the head of the queue, which atomics hold
  across landing + window, and which a killed op must give back.
* :class:`Pipeline` — computed: a stage whose service time is known on
  arrival (PCIe, NIC TX) is a FIFO whose departure time is arithmetic,
  so crossing it costs the caller one sleep and the schedule no event
  of its own.

Both track busy time so experiments can report utilization.  Every
verb crosses five stages, so a crossing is one flat call: no helper
for the busy-time accounting, no scan for the earliest-free server.

:class:`Store` is an unbounded FIFO channel used by RPC-style helpers and
tests.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.common.errors import SimulationError
from repro.sim.core import PENDING, Environment, Event


class Resource:
    """A FIFO resource with ``capacity`` concurrent slots.

    Usage from a process::

        req = resource.request()
        yield req
        ...   # hold the slot
        resource.release()

    Statistics: :attr:`busy_time` integrates (slots in use) over time;
    :meth:`utilization` divides by elapsed × capacity.  :attr:`peak_queue`
    records the worst backlog, which the NIC model uses as its RX-buffer
    occupancy signal.
    """

    __slots__ = ("env", "capacity", "name", "_info", "_in_use", "_queue",
                 "_busy_integral", "_last_change", "_started_at",
                 "peak_queue", "total_served")

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        #: the label every grant event carries (deadlock diagnostics)
        self._info = ("resource", name or "unnamed")
        self._in_use = 0
        self._queue: deque[Event] = deque()
        # statistics
        self._busy_integral = 0.0
        self._last_change = env.now
        self._started_at = env.now
        self.peak_queue = 0
        self.total_served = 0

    # -- stats ---------------------------------------------------------
    def _account(self) -> None:
        now = self.env._now
        self._busy_integral += self._in_use * (now - self._last_change)
        self._last_change = now

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def utilization(self) -> float:
        """Mean fraction of capacity busy since construction."""
        self._account()
        elapsed = self.env.now - self._started_at
        if elapsed <= 0:
            return 0.0
        return self._busy_integral / (elapsed * self.capacity)

    # -- protocol -------------------------------------------------------
    def request(self) -> Event:
        """Return an event that triggers once a slot is granted.

        A waiter that gets interrupted while parked on the event MUST
        call :meth:`cancel` with it (or use :meth:`acquire`, which does);
        otherwise the queued grant is eventually succeeded for a dead
        process and the slot leaks.
        """
        grant = self.admit()
        if grant is None:
            grant = Event(self.env)
            grant.info = self._info
            grant.succeed(self)
        return grant

    def admit(self) -> Optional[Event]:
        """Ask for a slot; returns the grant event to ``yield``, or
        ``None`` when there is nothing to wait for.

        A free slot is taken in place and costs no schedule slot: the
        caller already holds it when ``admit()`` returns ``None`` and
        carries straight on.  A busy resource returns the queued grant
        event.  Either way the value goes to :meth:`cancel` if the wait
        or the hold is abandoned, so the whole interrupt-safe hold is::

            grant = res.admit()
            try:
                if grant is not None:
                    yield grant      # admission
                yield t              # hold
            except BaseException:
                res.cancel(grant)
                raise
            res.release()
        """
        if self._in_use < self.capacity:
            now = self.env._now
            self._busy_integral += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use += 1
            self.total_served += 1
            return None
        grant = Event(self.env)
        grant.info = self._info
        queue = self._queue
        queue.append(grant)
        if len(queue) > self.peak_queue:
            self.peak_queue = len(queue)
        return grant

    def cancel(self, grant: Optional[Event]) -> bool:
        """Withdraw a pending request, or give back an already-granted
        slot the requester will never use.

        ``grant`` is what :meth:`admit` or :meth:`request` returned.
        Returns True if a slot had been granted (and was released here).
        Safe to call regardless of the request's state, so interrupt
        handlers need no bookkeeping about how far admission got:

        * still queued — the grant event is removed from the queue and
          will never be succeeded;
        * already granted (in place — ``None`` —, immediately, or handed
          over by a :meth:`release` in the same timestep the interrupt
          landed) — the slot is released on the canceller's behalf.

        A no-op once the environment is closed: a finished run's counters stay.
        """
        if self.env._closed:
            return False
        if grant is not None and grant._value is PENDING:
            try:
                self._queue.remove(grant)
            except ValueError:
                pass  # unknown/foreign event: nothing to withdraw
            return False
        self.release()
        return True

    def release(self) -> None:
        """Free one slot, admitting the next waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._queue:
            # Hand the slot straight to the next waiter; occupancy unchanged.
            self.total_served += 1
            self._queue.popleft().succeed(self)
        else:
            now = self.env._now
            self._busy_integral += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use -= 1

    def acquire(self):
        """Interrupt-safe admission: ``yield from resource.acquire()``.

        Equivalent to ``yield resource.request()`` except that a free
        slot is taken without suspending, and that an interrupt (or any
        exception) delivered while waiting returns the slot (or
        withdraws the queued request) instead of leaking it."""
        grant = self.admit()
        if grant is not None:
            try:
                yield grant
            except BaseException:
                self.cancel(grant)
                raise

    def serve(self, service_time: float):
        """Convenience process fragment: acquire, hold for ``service_time``,
        release.  ``yield from resource.serve(t)`` inside a process.
        Interrupt-safe in both phases: waiting cancels the request,
        holding releases the slot."""
        grant = self.admit()
        try:
            if grant is not None:
                yield grant
            yield float(service_time)
        except BaseException:
            self.cancel(grant)
            raise
        self.release()


class Pipeline:
    """A FIFO stage with ``capacity`` servers whose departures are
    computed instead of queued.

    For a stage whose service time is known when the op arrives, FIFO
    admission needs no grant event: the op starts when the earliest-free
    server frees (or now, if one is idle) and leaves ``service_ns``
    later, whatever arrives behind it.  :meth:`transit` books that and
    returns the delay until departure, which the caller sleeps on —
    alone, or added to whatever fixed delay follows the stage::

        yield nic.tx.transit(service_ns) + turnaround_ns

    Arrivals are served in the order :meth:`transit` is called, which
    is the order a :class:`Resource` would have queued them in, so the
    departure times are those of ``yield from resource.serve(t)``.  A
    booking cannot be withdrawn: an op killed while it waits has still
    been processed by the stage.

    The servers are interchangeable, so :attr:`_free_at` is kept in
    ascending order: the earliest-free server is its head, and a booking
    moves it to its new place behind the ones that free up sooner.

    Statistics: :attr:`total_served` counts bookings (as a
    :class:`Resource` counts grants); :meth:`utilization` counts booked
    service only up to the present.
    """

    __slots__ = ("env", "capacity", "name", "_free_at", "_booked_ns",
                 "_started_at", "total_served")

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"pipeline capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        #: when each server finishes what is booked on it, ascending
        self._free_at = [env.now] * capacity
        self._booked_ns = 0.0
        self._started_at = env.now
        self.total_served = 0

    def transit(self, service_ns: float) -> float:
        """Book ``service_ns`` on the earliest-free server and return
        the delay from now until the op leaves the stage."""
        now = self.env._now
        free_at = self._free_at
        start = free_at[0]
        if start < now:
            start = now
        end = start + service_ns
        i = 1
        n = self.capacity
        while i < n and free_at[i] < end:
            free_at[i - 1] = free_at[i]
            i += 1
        free_at[i - 1] = end
        self._booked_ns += service_ns
        self.total_served += 1
        return end - now

    def utilization(self) -> float:
        """Mean fraction of capacity busy since construction.  A server
        is busy without a gap from now until its ``free_at`` (a booking
        starts in the future only when it queues behind another), so
        the service still to come is what lies beyond ``now``."""
        now = self.env._now
        elapsed = now - self._started_at
        if elapsed <= 0:
            return 0.0
        busy = self._booked_ns
        for free_at in self._free_at:
            if free_at > now:
                busy -= free_at - now
        return busy / (elapsed * self.capacity)


class Store:
    """Unbounded FIFO channel of Python objects.

    ``put`` never blocks; ``get`` returns an event that triggers with the
    next item (immediately if one is buffered).
    """

    __slots__ = ("env", "name", "_items", "_getters")

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = self.env.event()
        ev.info = ("store", self.name or "unnamed")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting_getters(self) -> int:
        return len(self._getters)


class WaitQueue:
    """A broadcast/wakeup primitive: processes park on :meth:`wait` and a
    producer wakes one or all.  Used by the memory watcher layer."""

    __slots__ = ("env", "name", "_waiters")

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._waiters: deque[Event] = deque()

    def wait(self) -> Event:
        ev = self.env.event()
        ev.info = ("waitqueue", self.name or "unnamed")
        self._waiters.append(ev)
        return ev

    def wake_one(self, value: Any = None) -> bool:
        if self._waiters:
            self._waiters.popleft().succeed(value)
            return True
        return False

    def wake_all(self, value: Any = None) -> int:
        n = len(self._waiters)
        while self._waiters:
            self._waiters.popleft().succeed(value)
        return n

    def __len__(self) -> int:
        return len(self._waiters)
