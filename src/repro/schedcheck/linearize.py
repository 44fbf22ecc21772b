"""Wing–Gong linearizability checking with memoization.

The classic algorithm (Wing & Gong, JPDC'93) searches for a total order
of the operations that (a) respects real-time precedence — if op A's
response precedes op B's invoke, A must come first — and (b) is legal
for a sequential model of the object.  The search tries every *minimal*
operation (one no other unlinearized op strictly precedes) as the next
linearization point and recurses.

Plain Wing–Gong is exponential; the standard fix (Lowe, PPoPP'17) is to
memoize configurations ``(set of linearized ops, model state)`` — two
search paths that linearized the same op subset and produced the same
state are interchangeable, and histories from well-locked objects
collapse to near-linear work.

Models are tiny pure classes: ``init()`` → hashable state,
``apply(state, op)`` → ``(legal, next_state)``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.schedcheck.history import Op


class CounterModel:
    """Fetch-and-increment counter — the lock table's guarded counter.

    ``inc`` returns the pre-increment value (the value the critical
    section read); ``read`` returns the current value.
    """

    def init(self) -> int:
        return 0

    def apply(self, state: int, op: Op) -> tuple[bool, int]:
        if op.action == "inc":
            return op.result == state, state + 1
        if op.action == "read":
            return op.result == state, state
        return False, state


def check_linearizable(ops: Sequence[Op], model) -> Optional[str]:
    """None if ``ops`` (one object's completed operations) is
    linearizable under ``model``; else a human-readable refusal naming
    the ops still unlinearized at the deepest configuration the search
    reached.

    Iterative depth-first search over (remaining ops, state) with a
    memo of visited configurations.
    """

    ops = sorted(ops, key=lambda o: (o.invoke, o.opid))
    n = len(ops)
    if n == 0:
        return None
    ids = {op.opid: i for i, op in enumerate(ops)}
    full_mask = (1 << n) - 1

    # DFS stack of (done_mask, state); memo on the same pair.
    start = (0, model.init())
    stack = [start]
    memo = {start}
    # the deepest configuration reached, for the error message
    best_done, stuck = 0, ops

    while stack:
        done_mask, state = stack.pop()
        if done_mask == full_mask:
            return None
        remaining = [op for op in ops if not (done_mask >> ids[op.opid]) & 1]
        if n - len(remaining) > best_done:
            best_done, stuck = n - len(remaining), remaining
        # An op is minimal iff no other remaining op's response precedes
        # its invoke; equivalently invoke <= min(response over remaining).
        min_resp = min(op.response for op in remaining)
        for op in remaining:
            if op.invoke > min_resp:
                break  # remaining is invoke-sorted: no later op is minimal
            legal, next_state = model.apply(state, op)
            if not legal:
                continue
            nxt = (done_mask | (1 << ids[op.opid]), next_state)
            if nxt not in memo:
                memo.add(nxt)
                stack.append(nxt)

    return (f"history of {n} ops is NOT linearizable: search linearized at "
            f"most {best_done} ops before every extension became illegal "
            f"(unlinearized there: "
            + "; ".join(str(op) for op in stuck[:4])
            + (" ..." if len(stuck) > 4 else "") + ")")


def check_history(groups: dict[str, Sequence[Op]], model) -> list[str]:
    """Check every object's group against ``model``; returns violation
    messages.

    Args:
        groups: object name → its completed ops (see
            :meth:`HistoryRecorder.by_object`).
        model: the sequential model every object follows.
    """
    violations = []
    for obj in sorted(groups):
        msg = check_linearizable(groups[obj], model)
        if msg is not None:
            violations.append(f"{obj}: {msg}")
    return violations


__all__ = ["CounterModel", "check_linearizable", "check_history"]
