"""The protocol trace view: the log as a list of readable steps.

The quickstart replays the paper's Figure 2 from it, the schedcheck
checkers (:mod:`repro.schedcheck.checkers`) evaluate mutual exclusion
and the budget bound over it, and ``execution_digest`` hashes every
line of it.  It shows something only for a cluster recording at the
``PROTOCOL`` level or above (``Cluster(obs=PROTOCOL)``).

The lock code reports raw fields; the one-line ``detail`` strings are
produced here, on the read side, by the per-kind table below — the only
place they live.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Optional

from repro.memory.pointer import RdmaPointer
from repro.obs.log import PROTOCOL, VOCABULARY, EventLog, swap_wait


class TraceEvent(NamedTuple):
    """One protocol-level step (immutable; a tuple, because every
    explored schedule renders a few dozen of them for its digest).

    Attributes:
        time: simulated time in nanoseconds.
        actor: human-readable actor (e.g. ``"t1@n0"``).
        kind: step class (``"cs.enter"``, ``"peterson.acquired"``, ...).
        detail: one-line description; starts with the lock's name.
    """

    time: float
    actor: str
    kind: str
    detail: str = ""

    def __str__(self) -> str:
        # not cosmetic: schedcheck's execution digest hashes these bytes
        return f"[{self.time:>12.1f} ns] {self.actor:<10} {self.kind:<18} {self.detail}"


def _peterson_enter(lock, word, *_timed) -> Optional[str]:
    # of the waits, only the Peterson competition is a traced step
    if word.startswith("peterson-"):
        return f"{lock} cohort={word[len('peterson-'):].upper()}"
    return None


def _cs_enter(lock, how=None, n=None) -> str:
    if how is None:
        return lock
    return f"{lock} {how if n is None else how % n}"


def _peterson_acquired(lock, cohort, via, *spins) -> str:
    after = f" after {spins[0]} spins" if spins else ""
    return f"{lock} cohort={cohort.upper()} via {via}{after}"


#: log kind -> (trace kind, detail formatter over the raw fields; a
#: formatter returning None means "not a traced step").
_STEPS: dict[str, tuple[str, Callable[..., Optional[str]]]] = {
    "lock.wait": ("peterson.enter", _peterson_enter),
    "lock.acquired": ("cs.enter", _cs_enter),
    "lock.released": ("cs.exit", lambda lock: lock),
    "mcs.swap": ("mcs.swap", lambda lock, cohort, prev, _desc:
                 f"{lock} cohort={cohort.upper()} prev={RdmaPointer(prev)}"),
    "mcs.passed": ("mcs.passed", lambda lock, cohort, budget:
                   f"{lock} cohort={cohort.upper()} budget={budget}"),
    "mcs.pass": ("mcs.pass", lambda lock, cohort, budget:
                 f"{lock} cohort={cohort.upper()} -> budget {budget}"),
    "mcs.release": ("mcs.release", lambda lock, cohort, how:
                    f"{lock} cohort={cohort.upper()} {how}"),
    "peterson.acquired": ("peterson.acquired", _peterson_acquired),
}


class TraceView:
    """Iterable of :class:`TraceEvent` over the cluster's log.

    The rendered list is cached until the log grows: one finished run is
    typically read several times (checkers, digest, trace tail).
    """

    __slots__ = ("_log", "_rendered", "_rendered_at")

    def __init__(self, log: EventLog):
        self._log = log
        self._rendered: list[TraceEvent] = []
        self._rendered_at = (0, 0)  # the log's (kept, len) when rendered

    def _events(self) -> list[TraceEvent]:
        log = self._log
        if log.level < PROTOCOL:
            return []
        at = (log.kept, len(log))
        if self._rendered_at != at:
            out = []
            for t, actor, kind, fields in log:
                step = _STEPS.get(kind)
                if step is not None:
                    detail = step[1](*fields)
                    if detail is not None:
                        out.append(TraceEvent(t, actor, step[0], detail))
                    if kind == "mcs.swap":
                        # the swap is also its wait's lock.wait
                        detail = _peterson_enter(fields[0], swap_wait(fields[1], fields[2]))
                        if detail is not None:
                            out.append(TraceEvent(t, actor, "peterson.enter", detail))
                elif kind not in VOCABULARY:
                    # a user lock's own step: shown as reported
                    out.append(TraceEvent(t, actor, kind,
                                          " ".join(map(str, fields))))
            self._rendered, self._rendered_at = out, at
        return self._rendered

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events())

    def __len__(self) -> int:
        return len(self._events())

    def filtered(self, *, actor: Optional[str] = None,
                 kind: Optional[str] = None) -> list[TraceEvent]:
        """Events whose actor and/or kind start with the given prefixes
        (both filters are prefix matches: ``actor="t1"`` selects
        ``t1@n0`` and ``t1@n1``, ``kind="mcs"`` selects ``mcs.*``)."""
        return [ev for ev in self._events()
                if (actor is None or ev.actor.startswith(actor))
                and (kind is None or ev.kind.startswith(kind))]
