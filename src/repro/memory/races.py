"""Audit the local/remote atomicity matrix (paper Table 1).

RDMA guarantees atomicity between *8-byte* local and remote plain
reads/writes, and among remote atomics themselves (the NIC serializes
them), but **not** between a remote RMW and local writes/RMWs: at the
target, a remote CAS is a read followed by a write with a window in
between.  The 'No' cells of Table 1 are therefore:

* local ``Write``  overlapping a remote ``CAS`` window
* local ``RMW``    overlapping a remote ``CAS`` window

The auditor is a consumer of the run's access sink
(:mod:`repro.memory.region`): :meth:`RaceAuditor.access` sees every word
access the simulation performs and records (mode ``"record"``) or raises
on (mode ``"strict"``) any such overlap.  A run without auditing has no
auditor at all.  A correct RDMA lock — ALock included — must drive the
auditor to zero violations; the deliberately broken lock in
``examples/atomicity_pitfalls.py`` shows what the violations look like
and how they translate into lost updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from repro.common.errors import AtomicityViolation, SimulationError
from repro.memory.region import (LOCAL_RMW, LOCAL_WRITE, PRIVATE_WRITE,
                                 REMOTE_CAS, REMOTE_FAA, RMW_END)

Mode = Literal["record", "strict"]

#: Cells of Table 1 that RDMA does *not* make atomic: (local op, remote op).
UNSAFE_PAIRS: frozenset[tuple[str, str]] = frozenset({
    (LOCAL_WRITE, REMOTE_CAS),
    (LOCAL_RMW, REMOTE_CAS),
})

#: The access kinds judged against open windows, as the local op they
#: are: a private store is a local write.  A local read races nothing.
_JUDGED = {LOCAL_WRITE: LOCAL_WRITE, PRIVATE_WRITE: LOCAL_WRITE,
           LOCAL_RMW: LOCAL_RMW}
#: The landings that open an atomic window.
_OPENS = (REMOTE_CAS, REMOTE_FAA)


@dataclass(frozen=True)
class RaceRecord:
    """One observed violation of Table 1."""

    time: float
    node: int
    addr: int
    local_op: str
    remote_op: str
    local_actor: str
    remote_actor: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"[{self.time:.1f} ns] n{self.node} addr {self.addr:#x}: "
                f"local {self.local_op} by {self.local_actor} raced "
                f"remote {self.remote_op} by {self.remote_actor}")


class RaceAuditor:
    """The cluster's access sink when it audits: tracks in-flight remote
    RMW windows per word, each ``[read, read + atomic_window_ns)``, and
    checks local writes and RMWs against them."""

    def __init__(self, mode: Mode, atomic_window_ns: float):
        self._strict = mode == "strict"
        self._window_ns = float(atomic_window_ns)
        self.violations: list[RaceRecord] = []
        #: open windows per word: ``(op, actor, start)``
        self._windows: dict[tuple[int, int], list[tuple[str, str, float]]] = {}
        #: retire reports for windows the auditor never saw (double
        #: retire or a begin/end pairing bug in the verbs layer) — an
        #: internal-consistency error of the *simulator*, distinct from a
        #: Table-1 violation.
        self.consistency_errors = 0

    def access(self, node: int, addr: int, kind: str, actor: str,
               time: float) -> None:
        """The sink: judge a local write/RMW against the word's open
        windows, open a window on an RMW's read, retire one on its end;
        every other kind races nothing."""
        if kind in _JUDGED:
            op = _JUDGED[kind]
            for win_op, win_actor, start in self._windows.get((node, addr), ()):
                if start <= time < start + self._window_ns \
                        and (op, win_op) in UNSAFE_PAIRS:
                    rec = RaceRecord(time, node, addr, op, win_op, actor, win_actor)
                    self.violations.append(rec)
                    if self._strict:
                        raise AtomicityViolation(
                            str(rec), address=addr, local_op=op, remote_op=win_op)
        elif kind in _OPENS:
            self._windows.setdefault((node, addr), []).append((kind, actor, time))
        elif kind == RMW_END:
            self._retire(node, addr, actor)

    def _retire(self, node: int, addr: int, actor: str) -> None:
        """Retire ``actor``'s window on the word once its write-back has
        landed (or its op died).  A window that is not open means the
        verbs layer's begin/end pairing is broken — the audit's own
        bookkeeping can no longer be trusted: counted in
        :attr:`consistency_errors` and, in ``strict`` mode, raised."""
        key = (node, addr)
        wins = self._windows.get(key, ())
        for win in wins:
            if win[1] == actor:
                wins.remove(win)
                if not wins:
                    del self._windows[key]
                return
        self.consistency_errors += 1
        if self._strict:
            raise SimulationError(
                f"RaceAuditor: retiring unknown RMW window (node {node}, "
                f"addr {addr:#x}, actor {actor}): double retire or "
                f"unmatched begin/end in the verbs layer")

    # -- reporting -----------------------------------------------------------
    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def assert_clean(self) -> None:
        """Raise if any violation was recorded (test helper)."""
        if self.violations:
            first = self.violations[0]
            raise AtomicityViolation(
                f"{len(self.violations)} Table-1 violations; first: {first}",
                address=first.addr, local_op=first.local_op, remote_op=first.remote_op)
