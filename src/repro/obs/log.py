"""The protocol event log: one append-only stream per cluster.

Every logical transition of the simulated protocol — a verb leaving a
thread, a lock wait, a handover, an injected fault, a schedule
tie-break — is reported exactly once, by one unconditional call::

    ctx.emit(ctx.actor, "lock.wait", lock.name, "budget", "cohort", "local")

``emit`` formats nothing: it stores the raw fields it was handed.  What
is *kept* is decided here, from one retention level fixed when the
cluster is built, never at the call site:

* :data:`RING` (the default) keeps the flight vocabulary in a
  :data:`RING_CAPACITY`-entry ring — the always-on history every
  post-mortem freezes;
* :data:`PROTOCOL` (``Cluster(obs=PROTOCOL)``) adds the protocol-step
  kinds the trace checkers and walkthroughs read;
* :data:`INTERVALS` (``Cluster(obs=INTERVALS)``) adds the begin/end
  events of timed intervals.

The level is the cluster's only recording choice.  Levels nest:
raising the level never changes what a lower view shows.  The
read-side views — :class:`repro.obs.flight.RingView`,
:class:`repro.obs.trace.TraceView`, :class:`repro.obs.spans.SpanView`
and the duration histograms of
:meth:`repro.obs.metrics.MetricsRegistry.collect` — are projections of
this one stream; ``docs/architecture.md`` (§ Observability) has the
full vocabulary table with fields and levels.

A dropped event costs one call and one set lookup; a kept one also one
tuple and one ``deque.append``.  Recording never schedules an event or
reads anything but ``env._now``, so a run is bit-identical at every
level.
"""

from __future__ import annotations

from collections import deque

#: retention levels, ordered.
RING, PROTOCOL, INTERVALS = 0, 1, 2
LEVELS = (RING, PROTOCOL, INTERVALS)

#: kind -> lowest level that keeps it.  A kind not listed (a user
#: lock's own step) is kept at every level.
VOCABULARY: dict[str, int] = {
    # -- the flight vocabulary: protocol chokepoints, always kept -------
    "verb.issue": RING,        # (verb, dst node) — the atomics only
    "verb.timeout": RING,      # (verb, dst node) — retry budget exhausted
    "fault.drop": RING,        # (verb, dst node, cause)
    "fault.delay": RING,       # (verb, dst node, delay ns)
    "fault.stall": RING,       # (stall ns)
    "lock.wait": RING,         # (lock, word[, attr, value]) — see below
    "lock.acquired": RING,     # (lock[, how, n]) — see below
    "lock.released": RING,     # (lock)
    "mcs.swap": RING,          # (lock, cohort, previous tail, descriptor) — see swap_wait
    "lease.expired": RING,     # (lock, holder gid)
    "sched.tiebreak": RING,    # (index, fanout) — actor "sched"
    # -- protocol steps (Algorithms 3-4) ---------------------------------
    "mcs.passed": PROTOCOL,         # (lock, cohort, budget received)
    "mcs.pass": PROTOCOL,           # (lock, cohort, budget handed on)
    "mcs.release": PROTOCOL,        # (lock, cohort, how)
    "peterson.acquired": PROTOCOL,  # (lock, cohort, via[, spins])
    # -- timed intervals ---------------------------------------------------
    "lock.passed": INTERVALS,  # (lock) — a baseline queue wait is over
    "span.begin": INTERVALS,   # (span name, *attrs)
    "span.end": INTERVALS,     # (span name, *attrs)
}

#: The word a cohort leader's wait in Peterson's algorithm is reported
#: on, by cohort.
PETERSON_WAIT = {"local": "peterson-local", "remote": "peterson-remote"}


def swap_wait(cohort: str, prev: int) -> str:
    """The wait an ALock ``mcs.swap`` opens, which it reports with no
    ``lock.wait`` of its own: a leader (previous tail 0) competes in
    Peterson's algorithm, a follower links and waits for its budget.
    The views read the swap as a ``lock.wait`` on this word."""
    return PETERSON_WAIT[cohort] if prev == 0 else "budget"


#: Two ring kinds carry trailing fields only the higher views read (a
#: timed wait's span attribute, how a lock was won); the ring shows the
#: leading ones — the shapes post-mortem dumps have always had.
RING_ARITY = {"lock.wait": 2, "lock.acquired": 1}

#: events retained at the ring level / at the levels above it.  A run
#: that outgrows ``LOG_CAPACITY`` loses its oldest events, and with
#: them the oldest spans: its export says so (``EventLog.dropped``).
RING_CAPACITY = 1024
LOG_CAPACITY = 1 << 20


class EventLog:
    """Bounded append-only log of ``(t_ns, actor, kind, fields)`` tuples.

    Args:
        env: simulation environment (timestamps are ``env._now``).
        level: :data:`RING`, :data:`PROTOCOL` or :data:`INTERVALS`.
    """

    __slots__ = ("level", "kept", "_env", "_drops", "_events", "_append")

    def __init__(self, env, level: int = RING):
        self.level = level
        #: events kept so far; never decreases.
        self.kept = 0
        self._env = env
        self._drops = frozenset(
            kind for kind, lowest in VOCABULARY.items() if lowest > level)
        self._events: deque = deque(
            maxlen=RING_CAPACITY if level == RING else LOG_CAPACITY)
        self._append = self._events.append

    def emit(self, actor: str, kind: str, *fields: object) -> None:
        """Report one transition.  The whole write side: callers never
        test the level, and nothing here looks at ``fields``."""
        if kind not in self._drops:
            self.kept += 1
            self._append((self._env._now, actor, kind, fields))

    @property
    def dropped(self) -> int:
        """Kept events no longer held (evicted by the capacity bound, or
        cleared)."""
        return self.kept - len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()


def discard(actor: str, kind: str, *fields: object) -> None:
    """The ``emit`` of a component built without a cluster (a bare
    :class:`~repro.faults.FaultInjector` in a unit test)."""
