"""One breadth-first exploration per spec, every appendix property read
off it, as TLC checks all properties on one state space.

* **Safety, per state as the BFS pops it.**  ``MutualExclusion`` first
  (no two processes at ``cs``), then ``DeadlockFreedom`` (some step is
  enabled).  The search stops at the first violation and returns the
  BFS-parent trace to it, a shortest counterexample.
* **Liveness, once over the finished graph.**  ``StarvationFree ≜ ∀ p:
  (pc[p] = "enter") ⇝ (pc[p] = "cs")`` under weak process fairness (a
  process that stays enabled eventually steps: TLC's ``fair process``).
  An infinite run eventually stays inside one strongly connected
  component, and a cycle can visit every state and edge of an SCC.  So
  ``p`` can starve iff some SCC ``S`` has an edge inside it, ``p`` is
  mid-acquisition and not at ``cs`` in every state of ``S``, and every
  process steps on an edge inside ``S`` or is disabled in some state of
  ``S`` — exact for weak fairness.  The counterexample is a replayable
  lasso: the BFS-parent prefix to a state of ``S``, then a cycle through
  those witnesses back to it.

*Progress possibility* (every mid-protocol process can still reach
``cs`` on some path) is implied, so it is not checked separately.  From
a state where a mid-protocol ``p`` can never reach ``cs``, some bottom
SCC is reachable.  In it ``p`` is never at ``cs``, and never idle
either, since the only way back to ``p1`` is through ``cs``.  A bottom
SCC is fair by construction — every enabled step stays inside it — so
it is either a deadlock or a fair starvation cycle:
``DeadlockFreedom ∧ StarvationFree ⇒ ProgressPossibility``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count
from typing import Callable, Optional

from repro.common.errors import ConfigError
from repro.verification.spec import ALockSpec, State

#: ``CheckResult.property_name`` when every property holds.
PROPERTIES = "MutualExclusion, DeadlockFreedom, StarvationFree"

#: pc labels where a process is not waiting for the lock.
_NOT_WAITING = frozenset({"p1", "ncs", "cs"})

#: A state's id is its position in BFS order.  Per id: its BFS parent
#: and the pid that moved (None for initial states) ...
Parents = list[Optional[tuple[int, int]]]
#: ... and every enabled (pid, next state's id), in pid order.
Graph = list[list[tuple[int, int]]]


@dataclass
class Counterexample:
    """A trace from an initial state: ``actions[i]`` is the pid whose
    step takes ``states[i]`` to ``states[i + 1]``.  A starvation
    counterexample is a lasso: the run repeats ``states[loop_start:]``
    forever (its last state is ``states[loop_start]`` again)."""

    states: list[State]
    actions: list[int]
    violation: str
    loop_start: Optional[int] = None

    def __str__(self) -> str:
        lines = [f"violation: {self.violation}",
                 f"trace length: {len(self.states)}"]
        if self.loop_start is not None:
            lines.append(f"loop: the last step returns to step {self.loop_start}")
        for i, s in enumerate(self.states):
            mover = f" (pid {self.actions[i - 1]} moved)" if i else ""
            lines.append(f"  step {i}{mover}: pc={s.pc} cohort={s.cohort} "
                         f"victim={s.victim} budget={s.budget}")
        return "\n".join(lines)


@dataclass
class CheckResult:
    """The first violated property, or :data:`PROPERTIES` when all hold."""

    property_name: str
    holds: bool
    states_explored: int
    counterexample: Optional[Counterexample] = None
    detail: str = ""


def check(spec: ALockSpec, *, max_states: int = 2_000_000) -> CheckResult:
    """Check MutualExclusion, DeadlockFreedom and StarvationFree on one
    exploration of ``spec``.  Exceeding ``max_states`` raises: a bigger
    configuration needs a bigger bound, not silent truncation."""
    states, parents, succs, violated = _explore(spec, max_states)
    if violated is not None:
        return violated
    for component in _sccs(succs):
        starving = [p for p in spec.pids if all(
            states[i].pc[p - 1] not in _NOT_WAITING for i in component)]
        if not starving:
            continue
        members = set(component)
        steppers = {pid for i in component for pid, j in succs[i] if j in members}
        if steppers and all(
                q in steppers or any(spec.step(states[i], q) is None for i in component)
                for q in spec.pids):
            p, witness = starving[0], component[0]
            violation = (f"pid {p} starves: fair cycle through {len(component)} "
                         f"state(s) keeps it at {states[witness].pc[p - 1]!r} forever")
            return CheckResult(
                "StarvationFree", False, len(states),
                _lasso(spec, states, parents, succs, members, witness, steppers, violation),
                detail=f"SCC size {len(component)}, stepping pids {sorted(steppers)}")
    return CheckResult(PROPERTIES, True, len(states),
                       detail=f"no violation in {len(states)} states")


def _explore(spec: ALockSpec, max_states: int
             ) -> tuple[list[State], Parents, Graph, Optional[CheckResult]]:
    """The BFS: the states in BFS order, their parents and successor
    lists, and the first safety violation (None if there is none)."""
    states = list(spec.initial_states())
    ids = {s: i for i, s in enumerate(states)}
    parents: Parents = [None] * len(states)
    succs: Graph = []
    for i, state in enumerate(states):  # ``states`` is the BFS queue too
        in_cs = spec.processes_in_cs(state)
        if len(in_cs) > 1:
            return states, parents, succs, CheckResult(
                "MutualExclusion", False, len(states), _trace(
                    states, parents, i,
                    f"processes {in_cs} simultaneously in the critical section"))
        out = []
        for pid, nxt in spec.successors(state):
            j = ids.setdefault(nxt, len(states))
            if j == len(states):
                if j >= max_states:
                    raise ConfigError(
                        f"state space exceeds max_states={max_states}; "
                        f"raise the bound for this configuration")
                states.append(nxt)
                parents.append((i, pid))
            out.append((pid, j))
        if not out:
            return states, parents, succs, CheckResult(
                "DeadlockFreedom", False, len(states),
                _trace(states, parents, i, "deadlock: no enabled step"))
        succs.append(out)
    return states, parents, succs, None


def _trace(states: list[State], parents: Parents, i: int,
           violation: str) -> Counterexample:
    """The BFS-parent path from an initial state to state ``i``."""
    path, actions = [states[i]], []
    while parents[i] is not None:
        i, pid = parents[i]
        path.append(states[i])
        actions.append(pid)
    return Counterexample(path[::-1], actions[::-1], violation)


def _lasso(spec: ALockSpec, states: list[State], parents: Parents, succs: Graph,
           members: set, witness: int, steppers: set, violation: str) -> Counterexample:
    """The trace to ``witness``, then a cycle inside its SCC that steps
    every pid in ``steppers``, passes a state where each other pid is
    disabled, and ends back at ``witness``."""
    cex = _trace(states, parents, witness, violation)
    cex.loop_start = len(cex.states) - 1
    goals: list[Callable[[int, int], bool]] = [
        lambda pid, _j, q=q: pid == q for q in sorted(steppers)]
    goals += [lambda _pid, j, q=q: spec.step(states[j], q) is None
              for q in spec.pids if q not in steppers]
    goals.append(lambda _pid, j: j == witness)
    at = witness
    for goal in goals:
        # the shortest walk inside the SCC whose last step meets the goal
        walks, queue, walk = {at: []}, deque([at]), None
        while walk is None:
            i = queue.popleft()
            for pid, j in succs[i]:
                if j not in members:
                    continue
                if goal(pid, j):
                    walk = walks[i] + [(pid, j)]
                    break
                if j not in walks:
                    walks[j] = walks[i] + [(pid, j)]
                    queue.append(j)
        for pid, at in walk:
            cex.actions.append(pid)
            cex.states.append(states[at])
    return cex


def _sccs(succs: Graph) -> list[list[int]]:
    """Tarjan's algorithm, iterative (state graphs exceed the recursion
    limit by orders of magnitude).  A finished component's lowlink is
    set past every index, so no on-stack flag is needed."""
    n = len(succs)
    index, low = [-1] * n, [0] * n
    ticket = count()
    stack: list[int] = []
    result: list[list[int]] = []
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = next(ticket)
        stack.append(root)
        work = [(root, iter(succs[root]))]
        while work:
            node, it = work[-1]
            for _pid, child in it:
                if index[child] < 0:
                    index[child] = low[child] = next(ticket)
                    stack.append(child)
                    work.append((child, iter(succs[child])))
                    break
                low[node] = min(low[node], low[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while not component or component[-1] != node:
                        component.append(stack.pop())
                        low[component[-1]] = n
                    result.append(component)
    return result
