"""Execution checkers: invariants evaluated over one finished run.

Three families, all cheap single passes:

* **Critical-section overlap** — replays the ``cs.enter``/``cs.exit``
  trace per lock and rejects any moment with two holders.  This is a
  *trace-level* cross-check of the oracle in
  :meth:`repro.locks.base.DistributedLock._note_acquired` (which raises
  inside the acquiring process) and of the
  :class:`~repro.memory.races.RaceAuditor` (which watches memory words):
  three observers at three layers that must agree a schedule is clean.

* **Budget-bound conformance** — ALock's cohort-yield discipline: a
  cohort may take at most ``budget`` consecutive critical sections
  between two ``peterson.acquired`` events of its own (§5/Fig. 4 of the
  paper).  More means a budget handoff skipped the decrement or a leader
  skipped the global competition.

* **Linearizability** — delegates the recorded operation history to the
  Wing–Gong checker in :mod:`repro.schedcheck.linearize`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs.trace import TraceEvent
from repro.schedcheck.history import HistoryRecorder
from repro.schedcheck.linearize import CounterModel, check_history


def _lock_of(detail: str) -> str:
    """Lock name from a cs.*/mcs.*/peterson.* detail string (the name is
    always the first whitespace-separated token)."""
    return detail.split(" ", 1)[0]


def _actor_node(actor: str) -> int:
    """Node id from a ``t{j}@n{i}`` actor string (-1 if unparseable)."""
    _, sep, node = actor.rpartition("@n")
    if not sep:
        return -1
    try:
        return int(node)
    except ValueError:
        return -1


def check_cs_overlap(trace: Iterable[TraceEvent]) -> list[str]:
    """Violations of mutual exclusion visible in the trace: a
    ``cs.enter`` while another actor holds the same lock, or a
    ``cs.exit`` by a non-holder."""
    holders: dict[str, tuple[str, float]] = {}
    violations = []
    for ev in trace:
        if ev.kind == "cs.enter":
            lock = _lock_of(ev.detail)
            held = holders.get(lock)
            if held is not None:
                violations.append(
                    f"[{ev.time:.1f} ns] {ev.actor} entered CS of {lock} "
                    f"while {held[0]} held it (since {held[1]:.1f} ns)")
            else:
                holders[lock] = (ev.actor, ev.time)
        elif ev.kind == "cs.exit":
            lock = _lock_of(ev.detail)
            held = holders.get(lock)
            if held is None or held[0] != ev.actor:
                violations.append(
                    f"[{ev.time:.1f} ns] {ev.actor} exited CS of {lock} "
                    f"without being its recorded holder "
                    f"(holder: {held[0] if held else 'nobody'})")
            else:
                del holders[lock]
    return violations


def check_budget_bounds(trace: Iterable[TraceEvent],
                        budgets: dict[str, tuple[int, int, int]]) -> list[str]:
    """Violations of the cohort-budget bound.

    Args:
        trace: the run's protocol trace.
        budgets: lock name -> (home_node, local_budget, remote_budget);
            locks absent from the map are ignored (non-budgeted kinds).
    """
    violations = []
    # (lock, cohort) -> consecutive CS entries since that cohort's last
    # peterson.acquired (i.e. since it last won the global competition).
    streak: dict[tuple[str, str], int] = {}
    for ev in trace:
        if ev.kind == "peterson.acquired":
            lock = _lock_of(ev.detail)
            if lock not in budgets:
                continue
            cohort = "local" if "cohort=LOCAL" in ev.detail else "remote"
            streak[(lock, cohort)] = 0
        elif ev.kind == "cs.enter":
            lock = _lock_of(ev.detail)
            info = budgets.get(lock)
            if info is None:
                continue
            home, local_budget, remote_budget = info
            local = _actor_node(ev.actor) == home
            cohort = "local" if local else "remote"
            budget = local_budget if local else remote_budget
            key = (lock, cohort)
            streak[key] = streak.get(key, 0) + 1
            if streak[key] > budget:
                violations.append(
                    f"[{ev.time:.1f} ns] {cohort} cohort of {lock} took "
                    f"{streak[key]} consecutive critical sections "
                    f"(budget {budget}) without re-winning the global "
                    f"competition — budget handoff discipline violated "
                    f"(entered by {ev.actor})")
    return violations


def check_linearizability(history: Optional[HistoryRecorder]) -> list[str]:
    """Linearizability of the recorded operation history, per object:
    every object is a lock-table guarded counter (``counter[...]``),
    checked against :class:`CounterModel`.
    """
    if history is None or not history.ops:
        return []
    return check_history(history.by_object(), CounterModel())


def run_all_checkers(trace: Iterable[TraceEvent],
                     budgets: dict[str, tuple[int, int, int]],
                     history: Optional[HistoryRecorder]) -> list[str]:
    """Every checker over one finished run; returns all violations."""
    events = list(trace)
    problems = check_cs_overlap(events)
    problems.extend(check_budget_bounds(events, budgets))
    problems.extend(check_linearizability(history))
    return problems


__all__ = [
    "check_cs_overlap", "check_budget_bounds", "check_linearizability",
    "run_all_checkers",
]
