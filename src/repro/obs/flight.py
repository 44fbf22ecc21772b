"""The ring view: the always-on, backward-looking window of the log.

At the default level the cluster's event log (:mod:`repro.obs.log`) *is*
a 1024-entry ring of protocol chokepoints — verb issue/timeout, lock
transitions, cohort queue swaps, fault injections, lease expiry,
schedule tie-breaks — and when anything fails (sim deadlock, schedcheck
stall, crashed experiment cell, lease expiry) the post-mortem engine
(:mod:`repro.obs.postmortem`) freezes its last-N window into the dump.
At a higher level the log keeps more; this view still shows the same
thing — the last :data:`~repro.obs.log.RING_CAPACITY` ring-level events
with their ring-level fields — so a post-mortem reads the same whether
or not the run was traced.

Why 1024: the ring's retained tuples are the log's cache-resident
footprint, and a capacity sweep on the CI bench workload showed the
wall overhead tracking capacity (4096 ≈ 6%, 1024 ≈ 3.5%, 256 ≈ 2.5%
paired-median delta) while the pure append cost stayed ~1% — eviction
pressure, not appends, is what a too-large ring buys.  It still covers
hundreds of lock handovers, far more than any post-mortem window needs.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.obs.log import RING, RING_ARITY, RING_CAPACITY, VOCABULARY, EventLog


class FlightEvent(NamedTuple):
    """One ring event."""

    t_ns: float
    actor: str
    kind: str
    detail: tuple


class RingView:
    """Read side of the ring: windows, last actions, kind filters."""

    __slots__ = ("_log",)

    def __init__(self, log: EventLog):
        self._log = log

    def window(self, last: Optional[int] = None) -> list[FlightEvent]:
        """The most recent ``last`` ring events, oldest first (the whole
        ring if ``last`` is None or exceeds it)."""
        ring = [FlightEvent(t, actor, kind, fields[:RING_ARITY.get(kind)])
                for t, actor, kind, fields in self._log
                if VOCABULARY.get(kind, RING) == RING][-RING_CAPACITY:]
        return ring if last is None else ring[max(len(ring) - last, 0):]

    def __len__(self) -> int:
        return len(self.window())

    def last_actions(self) -> dict[str, FlightEvent]:
        """Each actor's most recent event, keyed by actor, sorted keys."""
        latest = {e.actor: e for e in self.window()}
        return {actor: latest[actor] for actor in sorted(latest)}

    def filtered(self, kind_prefix: str) -> list[FlightEvent]:
        """Events whose kind starts with ``kind_prefix``, oldest first."""
        return [e for e in self.window() if e.kind.startswith(kind_prefix)]
