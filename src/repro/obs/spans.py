"""The span view: the protocol interior as a tree of timed intervals.

A :class:`Span` is a named, sim-clock-timed interval attributed to one
actor (``"t1@n0"``).  Spans nest: a verb issued while a lock acquisition
is in flight is a *child* of that acquisition — one lock operation is a
span tree (``lock.acquire`` → ``mcs.queue_wait`` / ``peterson.compete``
→ ``verb.rtt`` → ``fault.retry``).

Nothing records spans.  :class:`SpanView` *replays* the begin/end
events of the cluster's log (:mod:`repro.obs.log`, kept at the
``INTERVALS`` level) through one open-span stack per actor: the outer
intervals (``lock.acquire``/``lock.release``, ``verb.rtt``,
``fault.retry``) are explicit ``span.begin``/``span.end`` events from
the two timing wrappers, the inner ones are the protocol's own steps —
a timed ``lock.wait`` (or ALock's ``mcs.swap``, see
:func:`~repro.obs.log.swap_wait`) opens the wait's span, and
``mcs.passed``, ``mcs.pass`` and ``peterson.acquired`` close it.

Span names are dotted and typed — the constants below are the
vocabulary the phase decomposition (:mod:`repro.obs.phases`) and the
exporters (:mod:`repro.obs.export`) consume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.log import INTERVALS, EventLog, swap_wait

# -- span vocabulary --------------------------------------------------------
#: one full lock acquisition: ``Lock()`` entry to critical-section entry.
LOCK_ACQUIRE = "lock.acquire"
#: one full release: ``Unlock()`` entry to return.
LOCK_RELEASE = "lock.release"
#: waiting in a cohort's MCS queue for the lock to be passed.
MCS_QUEUE_WAIT = "mcs.queue_wait"
#: competing in the modified Peterson's algorithm (cross-cohort wait).
PETERSON_COMPETE = "peterson.compete"
#: passing the lock to an MCS successor (wait-for-link + budget write).
COHORT_HANDOVER = "cohort.handover"
#: one one-sided verb, send doorbell to completion.
VERB_RTT = "verb.rtt"
#: one retransmission wait after an injected loss (watchdog timeout).
FAULT_RETRY = "fault.retry"

SPAN_NAMES = (LOCK_ACQUIRE, LOCK_RELEASE, MCS_QUEUE_WAIT, PETERSON_COMPETE,
              COHORT_HANDOVER, VERB_RTT, FAULT_RETRY)


@dataclass
class Span:
    """One timed interval.  ``end_ns is None`` while still open."""

    span_id: int
    parent_id: int  #: 0 = root (no enclosing span on this actor's stack)
    name: str
    actor: str
    start_ns: float
    end_ns: Optional[float] = None
    attrs: dict = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end_ns is not None

    @property
    def duration_ns(self) -> float:
        if self.end_ns is None:
            raise ValueError(f"span {self.name!r} (id {self.span_id}) still open")
        return self.end_ns - self.start_ns

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        end = f"{self.end_ns:.1f}" if self.finished else "…"
        return (f"[{self.start_ns:>12.1f}..{end} ns] {self.actor:<10} "
                f"{self.name:<18} {self.attrs}")


#: attribute names of the positional ``span.begin`` / ``span.end`` fields.
_BEGIN_ATTRS = {
    LOCK_ACQUIRE: ("lock", "kind", "home"),
    LOCK_RELEASE: ("lock", "kind", "home"),
    VERB_RTT: ("verb", "dst", "loopback"),
    FAULT_RETRY: ("verb", "transmission"),
}
_END_ATTRS = {
    LOCK_ACQUIRE: ("outcome",),
    LOCK_RELEASE: ("outcome",),
    VERB_RTT: ("outcome",),
    FAULT_RETRY: ("timeout_ns",),
}

#: the span a timed ``lock.wait`` opens, by the word waited on.
_WAIT_SPAN = {
    "budget": MCS_QUEUE_WAIT,
    "locked": MCS_QUEUE_WAIT,
    "next": COHORT_HANDOVER,
    "peterson-local": PETERSON_COMPETE,
    "peterson-remote": PETERSON_COMPETE,
}


class SpanView:
    """Spans of the cluster's log, rebuilt on demand.

    Empty below the ``INTERVALS`` level (``Cluster(obs=INTERVALS)``).  A
    non-zero ``log.dropped`` means the oldest spans are missing or lost
    their beginning.
    """

    __slots__ = ("_log",)

    def __init__(self, log: EventLog):
        self._log = log

    def _replay(self) -> tuple[list[Span], dict[str, list[Span]]]:
        """(finished spans in end order, open stacks by actor)."""
        finished: list[Span] = []
        stacks: dict[str, list[Span]] = {}
        if self._log.level < INTERVALS:
            return finished, stacks
        ids = itertools.count(1)

        def begin(t: float, actor: str, name: str, attrs: dict) -> None:
            stack = stacks.setdefault(actor, [])
            parent = stack[-1].span_id if stack else 0
            stack.append(Span(next(ids), parent, name, actor, t, attrs=attrs))

        def end(t: float, actor: str, name: str, attrs: dict) -> None:
            # Ends the actor's innermost open ``name``; whatever it left
            # open above (an interior unwound by an exception) ends with
            # it, marked abandoned.  An end with no open span — a step
            # reported outside a timed wait — is not an interval.
            stack = stacks.get(actor, ())
            if not any(s.name == name for s in stack):
                return
            while True:
                span = stack.pop()
                span.end_ns = t
                finished.append(span)
                if span.name == name:
                    span.attrs.update(attrs)
                    return
                span.attrs["outcome"] = "abandoned"

        for t, actor, kind, fields in self._log:
            if kind == "span.begin":
                name = fields[0]
                begin(t, actor, name, dict(zip(_BEGIN_ATTRS[name], fields[1:])))
            elif kind == "span.end":
                name = fields[0]
                end(t, actor, name, dict(zip(_END_ATTRS[name], fields[1:])))
            elif kind == "lock.wait":
                if len(fields) == 4:  # a timed wait: (lock, word, attr, value)
                    begin(t, actor, _WAIT_SPAN[fields[1]], {fields[2]: fields[3]})
            elif kind == "mcs.passed":
                end(t, actor, MCS_QUEUE_WAIT, {"budget": fields[2]})
            elif kind == "lock.passed":
                end(t, actor, MCS_QUEUE_WAIT, {})
            elif kind == "mcs.pass":
                end(t, actor, COHORT_HANDOVER, {"budget": fields[2]})
            elif kind == "peterson.acquired":
                end(t, actor, PETERSON_COMPETE,
                    dict(zip(("via", "spins"), fields[2:])))
            elif kind == "mcs.swap":
                # joining a cohort's queue classifies the acquisition and
                # opens the wait the swap's outcome decides (swap_wait)
                if stacks.get(actor):
                    stacks[actor][-1].attrs["cohort"] = fields[1]
                begin(t, actor, _WAIT_SPAN[swap_wait(fields[1], fields[2])],
                      {"cohort": fields[1]})
        return finished, stacks

    def spans(self) -> list[Span]:
        """Finished spans, in end order."""
        return self._replay()[0]

    def open_spans(self) -> list[Span]:
        """Spans still open (e.g. clients abandoned mid-op at window end),
        in deterministic (actor-first-seen, stack) order."""
        return [s for stack in self._replay()[1].values() for s in stack]
