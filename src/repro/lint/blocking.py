"""deep-blocking: a raw check-then-park in lock code.

"Blocking" in the simulator means yielding sim time until something
happens.  ``yield region.watch(addr)`` arms a one-shot watcher *at
yield time*: any write landing between the poll that decided to sleep
and the yield is lost, and the thread sleeps forever — the
``lost_wakeup`` seeded bug.  ``ctx.wait_local*`` registers its watcher
before re-checking and is the sanctioned primitive, so a raw park
anywhere in the lock protocol surface (:func:`repro.lint.deep.deep_scope`
— the lock classes and everything they call) is a finding, reported at
the yield.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.deep import DeepContext, DeepRule
from repro.lint.findings import Finding
from repro.lint.ir import attr_tail, expr_text


def is_raw_park(node: ast.AST) -> bool:
    """True for ``yield <expr>.watch(...)`` / ``yield <expr>.watch_any(...)``."""
    return (isinstance(node, ast.Yield)
            and isinstance(node.value, ast.Call)
            and attr_tail(node.value.func) in ("watch", "watch_any"))


class DeepBlockingRule(DeepRule):
    rule_id = "deep-blocking"
    description = ("a raw check-then-park in lock code: a watcher armed at "
                   "yield time strands the waiter whose wakeup write landed "
                   "after its poll")

    def check_project(self, ctx: DeepContext) -> Iterator[Finding]:
        for fn in ctx.checked_functions():
            for node in ast.walk(fn.node):
                if not is_raw_park(node):
                    continue
                target = expr_text(node.value.args[0]) if node.value.args else None
                word = f" on {target}" if target else ""
                yield ctx.finding(
                    fn, node.lineno, node.col_offset, self.rule_id,
                    self.default_severity,
                    f"raw check-then-park{word}: the watcher is armed at "
                    f"yield time, after the poll that decided to sleep — a "
                    f"write landing in between is lost and the thread never "
                    f"wakes; use ctx.wait_local/wait_local_cond "
                    f"(watcher-before-check)")
