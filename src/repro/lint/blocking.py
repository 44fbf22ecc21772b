"""deep-blocking: sim-time yields where the protocol can't afford them.

"Blocking" in the simulator means yielding sim time — parking on an
event, waiting on a watched word, acquiring another resource.  The
paper's liveness argument assumes the releaser's handover runs to
completion in bounded verb time, and that a parked waiter's wakeup
condition is armed *before* the condition is last checked.  Three
checks enforce that statically, using the transitive effect summaries
from :mod:`repro.lint.effects`:

B1 (raw check-then-park, reported at the yield)
    ``yield region.watch(addr)`` arms a one-shot watcher *at yield
    time*; any write landing between the preceding poll and the yield
    is lost and the thread sleeps forever — the ``lost_wakeup`` seeded
    bug.  ``ctx.wait_local*`` arms the watcher before re-checking and
    is the sanctioned primitive, so any raw park in lock code is a
    finding.

B2 (blocking wait predicate, reported at the wait call)
    The predicate passed to ``ctx.wait_local`` re-runs on every wakeup
    inside the wait machinery; if it (transitively) blocks, the waiter
    can deadlock against the very transition it polls for.  Predicates
    must be effect-free reads.  (``wait_local_cond`` makes its reads
    itself and is handed predicates over the value read, inside its
    clause tuples; deep-protocol's P1 reads those.)

B3 (unbounded block during handover, reported at the blocking call)
    Between a failed relinquish CAS and the discharging store (the
    window computed by :func:`repro.lint.protocol.relinquish_windows`),
    the successor is spinning on a word only this thread will write.
    Unbounded blocking inside that window (acquiring another lock,
    waiting on an unrelated condition) stalls the successor indefinitely
    — only the bounded verbs of the handover itself and the wait for
    the successor's *link* (``wait_local`` on a ``next`` pointer, the
    one wait Algorithm 3 performs there) are legitimate.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.deep import DeepContext, DeepRule
from repro.lint.effects import BLOCK_UNBOUNDED, is_raw_park
from repro.lint.findings import Finding
from repro.lint.ir import FunctionInfo, attr_tail, expr_text, name_tails
from repro.lint.protocol import relinquish_windows

_WAIT_TAILS = frozenset({"wait_local", "wait_local_cond"})

#: substrings that mark a pointer expression as the successor link —
#: the one word the releaser is *supposed* to wait on mid-handover.
_SUCCESSOR_HINTS = ("next", "nxt", "succ")


def _mentions_successor(node: ast.AST) -> bool:
    return any(any(hint in tail.lower() for hint in _SUCCESSOR_HINTS)
               for tail in name_tails(node))


def predicate_node(fn: FunctionInfo, expr: ast.AST) -> Optional[ast.AST]:
    """Resolve a wait predicate argument to its body-bearing node: a
    lambda inline, or a nested ``def`` of the same name inside ``fn``."""
    if isinstance(expr, ast.Lambda):
        return expr
    if isinstance(expr, ast.Name):
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not fn.node and node.name == expr.id:
                return node
    return None


RULE_ID = "deep-blocking"


class DeepBlockingRule(DeepRule):
    rule_id = RULE_ID
    description = ("sim-time yields that can strand a waiter: raw "
                   "check-then-park, blocking wait predicates, unbounded "
                   "blocking mid-handover")

    def check_project(self, ctx: DeepContext) -> Iterator[Finding]:
        for fn in ctx.checked_functions():
            yield from self._check_raw_parks(ctx, fn)
            yield from self._check_wait_predicates(ctx, fn)
            yield from self._check_handover_window(ctx, fn)

    # -- B1 ----------------------------------------------------------------
    def _check_raw_parks(self, ctx: DeepContext,
                         fn: FunctionInfo) -> Iterator[Finding]:
        for node in ast.walk(fn.node):
            if not is_raw_park(node):
                continue
            target = expr_text(node.value.args[0]) if node.value.args else None
            word = f" on {target}" if target else ""
            yield ctx.finding(
                fn, node.lineno, node.col_offset, self.rule_id,
                self.default_severity,
                f"raw check-then-park{word}: the watcher is armed at yield "
                f"time, after the poll that decided to sleep — a write "
                f"landing in between is lost and the thread never wakes; "
                f"use ctx.wait_local/wait_local_cond (watcher-before-check)")

    # -- B2 ----------------------------------------------------------------
    def _check_wait_predicates(self, ctx: DeepContext,
                               fn: FunctionInfo) -> Iterator[Finding]:
        for call in ctx.index.calls_in(fn):
            if attr_tail(call.func) != "wait_local" or len(call.args) < 2:
                continue
            pred = predicate_node(fn, call.args[1])
            if pred is None:
                continue
            body = pred.body
            probe = (ast.Module(body=body, type_ignores=[])
                     if isinstance(body, list) else body)
            effects = ctx.effects.stmt_effects(probe, fn)
            if effects.blocking > 0 or effects.parks_raw:
                pred_name = getattr(pred, "name", "<lambda>")
                yield ctx.finding(
                    fn, call.lineno, call.col_offset, self.rule_id,
                    self.default_severity,
                    f"wait predicate {pred_name}() can block "
                    f"({effects.blocking_label}) — it re-runs inside the "
                    f"wait machinery on every wakeup and must be an "
                    f"effect-free read of the watched words")

    # -- B3 ----------------------------------------------------------------
    def _check_handover_window(self, ctx: DeepContext,
                               fn: FunctionInfo) -> Iterator[Finding]:
        sites, cfg, before = relinquish_windows(ctx, fn)
        if not sites:
            return
        for idx in sorted(before):
            node = cfg.node(idx)
            if not node.heads:
                continue
            open_sites = sorted(sid for tok, sid in before[idx]
                                if tok == "oblig")
            if not open_sites:
                continue
            for head in node.heads:
                yield from self._window_calls(ctx, fn, sites, open_sites,
                                              head)

    def _window_calls(self, ctx: DeepContext, fn: FunctionInfo, sites,
                      open_sites, head: ast.AST) -> Iterator[Finding]:
        for call in ast.walk(head):
            if not isinstance(call, ast.Call):
                continue
            tail = attr_tail(call.func)
            if tail in _WAIT_TAILS and call.args \
                    and _mentions_successor(call.args[0]):
                continue  # waiting for the successor's link: legal
            if ctx.effects.call_effects(call, fn).blocking \
                    == BLOCK_UNBOUNDED:
                site = sites[open_sites[0]]
                yield ctx.finding(
                    fn, call.lineno, call.col_offset, self.rule_id,
                    self.default_severity,
                    f"unbounded blocking call while the handover for "
                    f"{site.ptr_text} (failed CAS at line {site.line}) "
                    f"is undischarged — the successor is spinning on a "
                    f"word only this thread will write")
