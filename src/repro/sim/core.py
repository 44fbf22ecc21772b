"""Event core: events, processes and the scheduler behind them.

Time is a float in **nanoseconds** throughout the library; the RDMA cost
model (microseconds-scale verbs, ~100 ns local ops) fits naturally and
the paper's latency plots are in nanoseconds.

Scheduler design
----------------

Events run in ``(time, seq)`` order, ``seq`` being a global insertion
counter.  The schedule is one append-only list of ``(time, seq, event)``
per simulated instant:

* ``_buckets`` — a dict from each exact future time to its list; an
  entry with ``now + delay > now`` is appended to its time's list.
* ``_times`` — a ``heapq`` of the distinct times ``_buckets`` holds.
* ``_nowq`` — the *current* instant's list, consumed through a head
  index: everything scheduled at ``now`` (resource grants, watcher
  wakeups, process boot/completion/interrupt, echoes) is appended here.

Append order **is** ``(time, seq)`` order: ``seq`` only grows, and an
instant's list receives its future entries first and its same-time
entries once the clock has reached it.  Advancing the clock pops the
next time and that time's list *becomes* the now-queue, so the ready
set is always ``_nowq[_now_head:]``.  This is not a calendar queue:
there is no bucket width — a bucket is one exact instant, and on the
model's cost grid a few dozen instants hold every pending entry.

Negative delays would put an entry behind the clock and a NaN one in a
bucket no time equals, so :meth:`Environment.schedule` rejects both
with :class:`~repro.common.errors.ConfigError`.

Sleeping
--------

A process that merely lets time pass yields the delay itself —
``yield 95.0`` — instead of building a :class:`Timeout`.  The process
owns one re-armable :class:`_Sleep` entry for its whole life;
``Process._resume`` stamps it with a fresh ``seq`` and files it by the
same rule ``Timeout.__init__`` uses, and the dispatch loop resumes the
owner directly when the entry is due: no event object, no callbacks
list, no callback loop.  The entry occupies exactly the ``(time, seq)``
slot the ``Timeout`` would have, so the schedule — and everything
derived from it — is the same.
:class:`Timeout` remains the composable form (``any_of``, callbacks,
waiting from outside a process).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional, Protocol

from repro.common.errors import ConfigError, SimulationError

__all__ = [
    "PENDING", "Interrupt", "EmitLike",
    "Event", "Timeout", "Process", "AnyOf",
    "Environment", "core_info",
]

_INF = float("inf")


class EmitLike(Protocol):
    """The ``emit`` of a protocol event log (see :mod:`repro.obs.log`).

    The engine sits below the log's package and stays ignorant of it; it
    only needs somewhere to report schedule tie-breaks, which exist
    solely on the policy path, so the default dispatch loop never pays
    for it — and a bare :class:`Environment` has no log at all, which is
    why this one sink stays optional.
    """

    def __call__(self, actor: str, kind: str, *fields: object) -> None: ...


class _Pending:
    """Sentinel for an event value that has not been produced yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING = _Pending()


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` is whatever the interrupter passed — by convention a
    short string or the interrupting object.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


def core_info() -> dict[str, str]:
    """Which event core serves this process.  There is one; harnesses
    that record the kind next to their numbers (the perf ledger) read
    the constant ``"pure"``."""
    return {"kind": "pure"}


class Event:
    """A one-shot occurrence that processes can wait on.

    Lifecycle: *pending* → *triggered* (succeed/fail) → *processed*
    (callbacks ran).  Waiting on an already-processed event resumes the
    waiter immediately (scheduled at the current time, preserving the
    global event order).

    ``info`` is an optional ``(kind, detail)`` label set by whoever hands
    the event out (resources, stores, memory watchers).  It feeds the
    deadlock diagnostics only — never simulation state.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "info")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._scheduled = False
        self.info: Optional[tuple[Any, ...]] = None

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (succeeded or failed)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if self._scheduled:
            raise SimulationError(f"{self!r} scheduled twice")
        self._value = value
        self._ok = True
        # Inlined ``env._schedule(self)`` — succeed() fires once per
        # resource grant / watcher wakeup, squarely on the hot path.
        # Delay-0 ⇒ the now-queue; append order is (time, seq) order.
        env = self.env
        self._scheduled = True
        env._seq = seq = env._seq + 1
        env._nowq.append((env._now, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters will have it
        raised at their ``yield``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._value = exception
        self._ok = False
        self.env._schedule(self)
        return self

    def _add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: deliver asynchronously at current time to
            # keep the "resume happens via the loop" invariant.
            self.env._schedule(_Echo(self.env, self, fn))
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        # The address is debug output only — never feeds sim state or seeds.
        return f"<{type(self).__name__} {state} at {id(self):#x}>"  # simlint: ignore[nondet-source]


class _Echo(Event):
    """Internal: re-delivers an already-processed event to a late waiter."""

    __slots__ = ("_target", "_fn")

    def __init__(self, env: "Environment", target: Event, fn: Callable[[Event], None]):
        super().__init__(env)
        self._target = target
        self._fn = fn
        self._value = None  # pre-triggered

    def _process(self) -> None:
        self.callbacks = None
        self._fn(self._target)


class Timeout(Event):
    """An event that triggers ``delay`` nanoseconds after creation.

    The value is held aside until the scheduler pops the timeout, so
    :attr:`triggered` stays False until the delay actually elapses.
    """

    __slots__ = ("delay", "_pending_value")

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:  # NaN too: it would fire at no time at all
            raise SimulationError(f"negative timeout delay {delay!r}" if delay < 0
                                  else f"NaN timeout delay {delay!r}")
        # Flattened Event.__init__ + env._schedule: timeouts are the most
        # frequently created event by an order of magnitude, and the two
        # extra frames per construction are measurable in every benchmark.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._scheduled = True
        self.info = None
        self.delay = delay
        self._pending_value = value
        env._seq = seq = env._seq + 1
        # Route on the *computed* time, not the delay: a positive delay
        # small enough to underflow (now + delay == now) must join the
        # now-queue, where seq order — the tie-break for equal times —
        # is the append order.
        now = env._now
        t = now + delay
        if t > now:
            bucket = env._buckets.get(t)
            if bucket is None:
                env._buckets[t] = bucket = []
                heappush(env._times, t)
            bucket.append((t, seq, self))
        else:
            env._nowq.append((now, seq, self))


class _Sleep:
    """A process's re-armable sleep entry (``yield <float delay>``).

    One per process, allocated at spawn.  ``seq`` is the schedule slot
    it is currently armed for; an interrupt disarms it (``seq = 0`` —
    real seqs start at 1), which leaves the slot in the schedule as a
    counted no-op, exactly what an abandoned :class:`Timeout` is.  The
    class-level ``_ok``/``_value`` let the dispatch loop hand the entry
    straight to ``Process._resume`` as "succeeded with ``None``".
    ``pid`` is the owner's, for schedule policies.
    """

    __slots__ = ("pid", "resume", "seq")

    _ok = True
    _value = None

    def __init__(self, proc: "Process"):
        self.pid = proc.pid
        self.resume = proc._resume_cb
        self.seq = 0


def _retired(event: "Event | _Sleep") -> None:
    """A finished or closed process's resume callback: its own bound
    ``_resume`` would be a reference cycle."""


class Process(Event):
    """Wraps a generator; the process *is* an event that triggers when the
    generator returns (value = its ``return`` value) or raises."""

    __slots__ = ("_generator", "_waiting_on", "name", "pid", "last_resumed_at",
                 "_resume_cb", "_sleep")

    def __init__(self, env: "Environment", generator: Generator[Any, Any, Any],
                 name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(f"process target must be a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._waiting_on: "Event | _Sleep | None" = None
        self.name = name or getattr(generator, "__name__", "process")
        #: creation-order id — stable identity for schedule policies and
        #: deadlock reports (never an address).
        self.pid = env._register_process(self)
        self.last_resumed_at = env._now
        # One bound method for the process's whole life: every park and
        # un-park uses the same object, so ``callbacks.remove`` compares
        # identically and schedule policies keying on ``cb.__self__``
        # see a stable owner.  Also saves a method-object allocation per
        # resume on the hot path.
        self._resume_cb: Callable[["Event | _Sleep"], None] = self._resume
        self._sleep = _Sleep(self)
        # Kick off at the current time.
        boot = Event(env)
        boot._value = None
        boot._ok = True
        env._schedule(boot)
        assert boot.callbacks is not None
        boot.callbacks.append(self._resume_cb)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        No-op if the process already finished.
        """
        if not self.is_alive:
            return
        self._unpark()
        kick = Event(self.env)
        kick._value = Interrupt(cause)
        kick._ok = False
        self.env._schedule(kick)
        assert kick.callbacks is not None
        kick.callbacks.append(self._interrupted)

    def _unpark(self) -> None:
        """Withdraw from whatever the process is parked on: its wake-up,
        if it still comes, must not resume the process."""
        target = self._waiting_on
        if isinstance(target, _Sleep):
            target.seq = 0  # disarm: the stale slot dispatches as a no-op
        elif target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._waiting_on = None

    def _interrupted(self, kick: Event) -> None:
        """Deliver an interrupt's kick.  Since :meth:`interrupt` ran the
        process may have been resumed by an earlier kick and parked
        again (two interrupts in one tick, or one it sent itself), so it
        is withdrawn from where it is parked *now* — otherwise that wait
        would later resume it a second time."""
        if self.is_alive:
            self._unpark()
            self._resume(kick)

    def _resume(self, event: "Event | _Sleep") -> None:
        self._waiting_on = None
        env = self.env
        self.last_resumed_at = env._now
        gen = self._generator
        env._active_process = self
        try:
            while True:
                if event._ok:
                    target = gen.send(event._value)
                else:
                    target = gen.throw(event._value)
                if target.__class__ is float:
                    # ``yield <delay>``: arm the process's own sleep
                    # entry.  seq and routing are Timeout.__init__'s,
                    # so the entry takes the slot a Timeout would have.
                    if not target >= 0.0:
                        raise SimulationError(
                            f"process {self.name!r} yielded a negative "
                            f"or NaN delay {target!r}")
                    sleep = self._sleep
                    env._seq = seq = env._seq + 1
                    sleep.seq = seq
                    now = env._now
                    t = now + target
                    if t > now:
                        bucket = env._buckets.get(t)
                        if bucket is None:
                            env._buckets[t] = bucket = []
                            heappush(env._times, t)
                        bucket.append((t, seq, sleep))
                    else:
                        env._nowq.append((now, seq, sleep))
                    self._waiting_on = sleep
                    return
                if not isinstance(target, Event):
                    raise SimulationError(
                        f"process {self.name!r} yielded non-event {target!r}"
                        " (a sleep is a float delay in ns)")
                callbacks = target.callbacks
                if callbacks is not None:
                    # Pending, or triggered but not yet processed — park and
                    # let the loop process it so ordering matches schedule
                    # order.
                    self._waiting_on = target
                    callbacks.append(self._resume_cb)
                    return
                # Already processed: consume its value synchronously.
                event = target
        except StopIteration as stop:
            self._value = stop.value
            self._ok = True
            self.env._schedule(self)
            self._resume_cb = self._sleep.resume = _retired
        except BaseException as exc:
            # An exception (an un-handled interrupt too) fails the process;
            # the traceback loses this frame, which would make it a cycle.
            tb = exc.__traceback__
            self._value = exc.with_traceback(tb.tb_next if tb else None)
            del tb
            self._ok = False
            self.env._schedule(self)
            self._resume_cb = self._sleep.resume = _retired
            if not isinstance(exc, Exception):  # pragma: no cover - KeyboardInterrupt etc.
                raise
        finally:
            env._active_process = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class AnyOf(Event):
    """Triggers when the first constituent event triggers (at once, on
    an empty list).

    Value: dict of the triggered events and their values at that moment.
    A failed constituent fails the condition.
    """

    __slots__ = ("events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("all events in a condition must share an environment")
            ev._add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self.succeed({ev: ev._value for ev in self.events
                          if ev.triggered and ev._ok})


def _describe_wait(event: "Event | _Sleep | None") -> str:
    """Human-readable description of what a parked process waits on,
    using :attr:`Event.info` labels when the issuer set one."""
    if event is None:
        return "nothing (never parked or mid-interrupt)"
    if isinstance(event, _Sleep):
        return "Timeout"  # a sleep is a timeout to everyone but the scheduler
    if event.info is not None:
        kind, *detail = event.info
        return f"{kind}({', '.join(str(d) for d in detail)})"
    return type(event).__name__


#: a schedule entry, in an instant's list
_Entry = tuple[float, int, "Event | _Sleep"]


class SchedulePolicyLike(Protocol):
    """Structural type of the same-time tie-break hook (see
    :mod:`repro.schedcheck`)."""

    def choose(self, ready: list[_Entry]) -> int: ...


class Environment:
    """The event loop and virtual clock.

    ``run(until=...)`` processes events in ``(time, seq)`` order.  ``seq``
    is a global insertion counter, so simultaneous events run in the order
    they were scheduled — fully deterministic.

    A *schedule policy* (see :mod:`repro.schedcheck`) may be installed to
    override the same-time tie-break: at each step where several events
    are ready at the minimum time, the policy picks which one runs.  One
    dispatch loop serves both cases: with no policy installed (the
    default) it skips the tie test, and the trivial first-ready policy
    reproduces it decision for decision.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # the schedule: see the module docstring.  _nowq is consumed via
        # a head index (amortized O(1), no list.pop(0)).
        self._buckets: dict[float, list[_Entry]] = {}
        self._times: list[float] = []
        self._nowq: list[_Entry] = []
        self._now_head = 0
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._event_count = 0
        # schedule-exploration hook (None = historical fast path)
        self._policy: Optional[SchedulePolicyLike] = None
        self._sched_log: list[int] = []
        self._sched_fanout: list[int] = []
        # event-log hook: only _choose consults it, so a run without a
        # policy never reaches it (see EmitLike)
        self.emit: Optional[EmitLike] = None
        # process registry for deadlock diagnostics / schedule policies
        self._procs: list[Process] = []
        self._next_pid = 0
        self._procs_prune_at = 64
        self._closed = False

    # -- clock ------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def event_count(self) -> int:
        """Total events processed so far (for engine benchmarks)."""
        return self._event_count

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    def close(self) -> None:
        """End the run and break its reference cycles (DESIGN.md decision
        21).  The clock, the counts and each process's state stay
        readable; :meth:`run` raises; a second call does nothing."""
        self._closed = True
        procs, self._procs = self._procs, []
        for proc in procs:
            if proc._value is PENDING:
                proc._generator.close()
                proc._waiting_on = None
                proc._resume_cb = proc._sleep.resume = _retired
                proc.callbacks = []
        # nothing pending fires now: a condition and a constituent it
        # watches would stay a cycle
        for entries in (self._nowq, *self._buckets.values()):
            for _t, _seq, event in entries:
                if isinstance(event, Event) and event.callbacks:
                    event.callbacks = []
        self._buckets, self._times, self._nowq, self._now_head = {}, [], [], 0
        self.emit = self._policy = None

    # -- factories ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Any, Any, Any], name: str = "") -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- process registry ---------------------------------------------
    def _register_process(self, proc: Process) -> int:
        """Track ``proc`` for diagnostics; returns its creation-order pid.
        Finished processes are pruned amortized-O(1) so long simulations
        do not accumulate dead generators."""
        self._next_pid += 1
        self._procs.append(proc)
        if len(self._procs) >= self._procs_prune_at:
            self._procs = [p for p in self._procs if p.is_alive]
            self._procs_prune_at = max(64, 2 * len(self._procs) + 1)
        return self._next_pid

    def alive_processes(self) -> list[Process]:
        """Processes that have not finished, in creation order."""
        return [p for p in self._procs if p.is_alive]

    def describe_alive(self, limit: int = 8) -> str:
        """One-line diagnostic of the still-alive processes — what each is
        named, when it last ran, and what event it is parked on."""
        alive = self.alive_processes()
        if not alive:
            return "no processes alive"
        parts = []
        for p in alive[:limit]:
            parts.append(f"{p.name} (pid {p.pid}, last resumed at "
                         f"{p.last_resumed_at:.1f} ns, waiting on "
                         f"{_describe_wait(p._waiting_on)})")
        if len(alive) > limit:
            parts.append(f"... and {len(alive) - limit} more")
        return "; ".join(parts)

    # -- schedule-exploration hook -------------------------------------
    def set_schedule_policy(self, policy: Optional[SchedulePolicyLike]) -> None:
        """Install (or with ``None`` remove) a same-time tie-break policy.

        The policy object needs one method,
        ``choose(ready: list[tuple[float, int, Event]]) -> int``, called
        whenever two or more events are ready at the minimum time.
        ``ready`` is ordered by insertion (ascending ``seq``), so
        returning 0 reproduces the default schedule exactly.  Every
        choice is appended to :attr:`schedule_decisions` /
        :attr:`schedule_fanouts` for replay and shrinking.
        """
        self._policy = policy

    @property
    def schedule_decisions(self) -> list[int]:
        """Chosen ready-list index per choice point (policy runs only)."""
        return self._sched_log

    @property
    def schedule_fanouts(self) -> list[int]:
        """Number of ready events per choice point (policy runs only)."""
        return self._sched_fanout

    # -- scheduling ----------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Schedule ``event`` to be processed ``delay`` ns from now.

        Negative and NaN delays are a :class:`ConfigError`: the clock
        never runs backwards, and an entry behind it (or at no time at
        all) would break the ordering argument in the module docstring.
        """
        self._schedule(event, delay)

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        if not delay >= 0:
            raise ConfigError(
                f"schedule() got {'negative' if delay < 0 else 'NaN'} delay "
                f"{delay!r}; events cannot be scheduled in the past "
                f"(now={self._now})")
        event._scheduled = True
        self._seq = seq = self._seq + 1
        now = self._now
        t = now + delay
        if t > now:
            bucket = self._buckets.get(t)
            if bucket is None:
                self._buckets[t] = bucket = []
                heappush(self._times, t)
            bucket.append((t, seq, event))
        else:
            self._nowq.append((now, seq, event))

    def _has_work(self) -> bool:
        return self._now_head < len(self._nowq) or bool(self._times)

    # -- execution ----------------------------------------------------
    def step(self) -> None:
        """Process exactly one event: the first in ``(time, seq)``
        order, or the schedule policy's pick among those ready at the
        minimum time.  The ready set is ``nowq[nh:]`` in ascending
        ``seq``; unchosen entries stay in place."""
        nowq = self._nowq
        nh = self._now_head
        if nh == len(nowq):
            if not self._times:
                raise SimulationError("step() on an empty schedule")
            self._now = now = heappop(self._times)
            self._nowq = nowq = self._buckets.pop(now)
            self._now_head = nh = 0
        if (self._policy is not None and len(nowq) - nh > 1
                and (idx := self._choose(nowq, nh))):
            entry = nowq.pop(nh + idx)
        else:
            entry = nowq[nh]
            self._now_head = nh + 1
        self._dispatch(entry)

    def _choose(self, nowq: list[_Entry], nh: int) -> int:
        """Ask the policy which of the ready set ``nowq[nh:]`` (two or
        more entries) runs next; record and report the choice.  The one
        place the policy is consulted, by :meth:`step` and
        :meth:`_run_drain` alike."""
        n_ready = len(nowq) - nh
        assert self._policy is not None
        idx = self._policy.choose(nowq[nh:])
        if not 0 <= idx < n_ready:
            raise SimulationError(
                f"schedule policy chose index {idx} out of "
                f"{n_ready} ready events")
        self._sched_log.append(idx)
        self._sched_fanout.append(n_ready)
        emit = self.emit
        if emit is not None:
            emit("sched", "sched.tiebreak", idx, n_ready)
        return idx

    def _dispatch(self, entry: _Entry) -> None:
        """Run one popped schedule entry (:meth:`_run_drain` inlines
        this)."""
        self._event_count += 1
        event = entry[2]
        if isinstance(event, _Sleep):
            # a sleep entry resumes its owner directly — unless an
            # interrupt disarmed it, which leaves a counted no-op
            if event.seq == entry[1]:
                event.resume(event)
            return
        if isinstance(event, _Echo):
            event._process()
            return
        if isinstance(event, Timeout):
            event._value = event._pending_value
            event._ok = True
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for fn in callbacks:
                fn(event)

    def peek(self) -> float:
        """Time of the next event, or +inf if none is scheduled."""
        if self._now_head < len(self._nowq):
            return self._now
        return self._times[0] if self._times else _INF

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until the schedule drains, a deadline passes, or an event fires.

        Args:
            until: ``None`` → run to exhaustion; a number → run while the
                next event is at or before that time, then set ``now`` to
                it; an :class:`Event` → run until it is processed and
                return its value (raising if it failed).
        """
        if self._closed:
            raise SimulationError("run() on a closed environment")
        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                if not self._has_work():
                    raise SimulationError(
                        "schedule drained before the awaited event "
                        "triggered (deadlock?); " + self.describe_alive())
                self.step()
            if stop._ok:
                return stop._value
            raise stop._value
        deadline = _INF if until is None else float(until)
        if deadline < self._now:
            raise SimulationError(f"run(until={deadline}) is in the past (now={self._now})")
        self._run_drain(deadline)
        if until is not None:
            self._now = deadline
        return None

    def drain(self, deadline: float) -> None:
        """Run every event at or before ``deadline``, like
        ``run(until=deadline)``, but leave the clock at the last event
        run instead of moving it to the deadline."""
        if self._closed:
            raise SimulationError("drain() on a closed environment")
        self._run_drain(float(deadline))

    def _run_drain(self, deadline: float) -> None:
        """The dispatch loop, with or without a schedule policy:
        :meth:`step` and :meth:`_dispatch` inlined.

        This is the innermost loop of every benchmark, experiment and
        explored schedule: dispatching through here instead of per-event
        ``step()`` calls removes two Python frames plus several attribute
        loads per event.  Semantically identical to ``while peek() <=
        deadline: step()`` — same order, same policy consultations (every
        dispatch with two or more entries ready, the first one of a newly
        reached instant included), same sleep/Timeout/_Echo handling,
        same callback sequence.
        """
        times = self._times
        buckets = self._buckets
        policy = self._policy
        nowq = self._nowq
        nh = self._now_head
        count = self._event_count
        try:
            while True:
                if nh == len(nowq):
                    # instant exhausted: the next time's list becomes
                    # the now-queue
                    if not times or times[0] > deadline:
                        break
                    self._now = now = heappop(times)
                    self._nowq = nowq = buckets.pop(now)
                    nh = 0
                if (policy is not None and len(nowq) - nh > 1
                        and (idx := self._choose(nowq, nh))):
                    entry = nowq.pop(nh + idx)
                else:
                    entry = nowq[nh]
                    nh += 1
                count += 1
                # exact-class tests below: mypy only narrows on isinstance
                event: Any = entry[2]
                cls = event.__class__
                if cls is _Sleep:
                    if event.seq == entry[1]:
                        event.resume(event)
                    continue
                if cls is Timeout:
                    event._value = event._pending_value
                elif cls is not Event:
                    if isinstance(event, _Echo):
                        event._process()
                        continue
                    if isinstance(event, Timeout):
                        event._value = event._pending_value
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    for fn in callbacks:
                        fn(event)
        finally:
            self._event_count = count
            self._now_head = nh
