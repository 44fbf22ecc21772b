"""Operation histories for linearizability checking.

A history is the invoke/response record of operations on shared objects
(the lock table's guarded counters).  The recorder is an opt-in hook:
the lock table calls ``invoke``/``respond`` only when a recorder is
attached, so the default path stays one branch.

Times come from the simulation clock: ``invoke`` is sampled when the
operation's generator starts touching shared state, ``response`` when
its result is determined.  Two operations are *concurrent* iff their
``[invoke, response]`` intervals overlap — the input relation of the
Wing–Gong checker in :mod:`repro.schedcheck.linearize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.sim.core import Environment


@dataclass(frozen=True)
class Op:
    """One completed operation against one object."""

    opid: int
    actor: str
    obj: str
    action: str
    result: Any
    invoke: float
    response: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"[{self.invoke:>10.1f}..{self.response:>10.1f}] {self.actor:<8} "
                f"{self.obj}.{self.action}() -> {self.result}")


class HistoryRecorder:
    """Collects invoke/response pairs from the instrumented lock table.

    Pending operations (invoked, never responded — e.g. a client that
    died mid-operation) are kept separately; the checker treats them as
    possibly-not-taken-effect and excludes them (documented limitation:
    a pending op whose effect *was* observed by a completed op will fail
    the check, which is the conservative direction for a test oracle).
    """

    def __init__(self, env: Environment):
        self.env = env
        self._next_id = 1
        self._pending: dict[int, tuple[str, str, str, float]] = {}
        self.ops: list[Op] = []

    def invoke(self, actor: str, obj: str, action: str) -> int:
        opid = self._next_id
        self._next_id += 1
        self._pending[opid] = (actor, obj, action, self.env.now)
        return opid

    def respond(self, opid: int, result: Any = None) -> None:
        actor, obj, action, invoked = self._pending.pop(opid)
        self.ops.append(Op(opid, actor, obj, action, result, invoked,
                           self.env.now))

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def by_object(self) -> dict[str, list[Op]]:
        """Completed ops grouped per object, each group in invoke order.
        Objects are independent linearizability domains (one lock-table
        counter each), checked separately."""
        groups: dict[str, list[Op]] = {}
        for op in self.ops:
            groups.setdefault(op.obj, []).append(op)
        for ops in groups.values():
            ops.sort(key=lambda o: (o.invoke, o.opid))
        return groups


__all__ = ["Op", "HistoryRecorder"]
