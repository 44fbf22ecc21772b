"""Queued resources for the simulator.

:class:`Resource` models a server pool with FIFO admission — we use it
for NIC TX/RX pipelines and the PCIe bus, where the *queueing delay under
load* is exactly the congestion phenomenon the paper discusses (§2).
It tracks busy time and queue-length statistics so experiments can report
utilization.

:class:`Store` is an unbounded FIFO channel used by RPC-style helpers and
tests.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.common.errors import SimulationError
from repro.sim.core import Environment, Event


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

    __slots__ = ("env", "capacity", "name", "_in_use", "_queue",
                 "_busy_integral", "_last_change", "_started_at",
                 "peak_queue", "total_served")

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
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
        ev = Event(self.env)
        ev.info = ("resource", self.name or "unnamed")
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            self.total_served += 1
            ev.succeed(self)
        else:
            self._queue.append(ev)
            if len(self._queue) > self.peak_queue:
                self.peak_queue = len(self._queue)
        return ev

    def admit(self) -> "float | Event":
        """Ask for a slot; returns what the calling process must ``yield``.

        A free slot is taken in place and ``0.0`` is returned: the
        zero-delay sleep takes the ``seq`` the grant event's
        ``succeed()`` would have taken and joins the same now-queue, so
        the grant keeps its position in the schedule without an
        :class:`Event`.  A busy resource returns the queued grant event.
        Either way the value goes to :meth:`cancel` if the wait or the
        hold is abandoned, so the whole interrupt-safe hold is::

            grant = res.admit()
            try:
                yield grant          # admission
                yield t              # hold
            except BaseException:
                res.cancel(grant)
                raise
            res.release()
        """
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            self.total_served += 1
            return 0.0
        return self.request()

    def cancel(self, grant: "float | Event") -> bool:
        """Withdraw a pending request, or give back an already-granted
        slot the requester will never use.

        ``grant`` is what :meth:`admit` or :meth:`request` returned.
        Returns True if a slot had been granted (and was released here).
        Safe to call regardless of the request's state, so interrupt
        handlers need no bookkeeping about how far admission got:

        * still queued — the grant event is removed from the queue and
          will never be succeeded;
        * already granted (in place — ``0.0`` —, immediately, or handed
          over by a :meth:`release` in the same timestep the interrupt
          landed) — the slot is released on the canceller's behalf.
        """
        if grant.__class__ is not float and not grant.triggered:
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
            self._account()
            self._in_use -= 1

    def acquire(self):
        """Interrupt-safe admission: ``yield from resource.acquire()``.

        Equivalent to ``yield resource.request()`` except that an
        interrupt (or any exception) delivered while waiting returns the
        slot (or withdraws the queued request) instead of leaking it."""
        grant = self.admit()
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
            yield grant
            yield float(service_time)
        except BaseException:
            self.cancel(grant)
            raise
        self.release()


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
