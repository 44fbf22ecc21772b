"""deep-protocol: verb-order state machines over the relinquish CAS.

The MCS-style release protocol (paper Algorithm 3) has a three-state
core: ``OWNED → (CAS tail, expect own descriptor, store 0)`` and then

* **success** — the queue was empty; the tail word is relinquished and
  this thread must not touch it again (a later read races the next
  enqueuer's swap);
* **failure** — a successor is enqueued (or mid-link); the releaser now
  *owes* a handoff: it must write the successor's budget/locked word
  before finishing, or the successor spins forever on a word nobody
  will write (the ``skip_budget_wait`` seeded bug, made schedule-
  dependent by the swap-to-link window).

Three checks, all flow-sensitive over the shared CFG:

P1 (wait-clause completeness, reported at the wait call)
    ``ctx.wait_local_cond([w1, w2], clauses)`` parks on writes to *all*
    the listed words and re-checks its ordered ``(word, predicate,
    why)`` clauses; if a watched word is no clause's word, a wakeup on
    it cannot change the decision and the sleeper can hang — exactly
    the ``no_victim_check`` seeded bug, where the Peterson waiter
    watches the victim word it never reads.  Both arguments must be
    literals (inline, or a name the function binds to one): a call the
    rule cannot read is itself a finding, not a pass.

P2 (handover obligation, reported at the escaping exit)
    After the failed-relinquish branch, every normal exit must be
    preceded by a *store* effect (a write/CAS/FAA verb, local or
    remote, possibly inside a helper — effect summaries carry it).

P3 (use-after-relinquish, reported at the offending verb)
    After the successful-relinquish branch, no verb may address the
    relinquished word again.

The relinquish site is recognized syntactically: an assignment
``v = [yield from] <cas|r_cas>(ptr, expected, 0)`` — or a cohort's
``tail_cas(ctx, ptr, expected, 0)``, how a lock that states the queue
once for both API families spells it (:data:`effects.COHORT_OPS`) —
whose stored value is literally zero, followed by a branch comparing
``v`` against the expected expression.  Branch refinement happens on the
CFG's TRUE/FALSE edges, so arbitrarily nested handling code is tracked.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.lint.dataflow import (
    EXC, FALSE, TRUE, Cfg, CfgNode, ForwardAnalysis, run_forward,
)
from repro.lint.deep import DeepContext, DeepRule
from repro.lint.effects import COHORT_OPS
from repro.lint.findings import Finding
from repro.lint.ir import FunctionInfo, attr_tail, expr_text

_CAS_TAILS = frozenset({"cas", "r_cas", "tail_cas"})
_VERB_TAILS = frozenset({"read", "write", "cas", "faa",
                         "r_read", "r_write", "r_cas", "r_faa"}) | set(COHORT_OPS)
_WAIT_COND_TAILS = frozenset({"wait_local_cond"})


@dataclass(frozen=True)
class RelinquishSite:
    """One ``v = cas(ptr, expected, 0)`` statement."""

    site_id: int
    var: str            #: name the CAS result is bound to
    ptr_text: str       #: spelled pointer argument (``self.tail_r_ptr``)
    expected_text: str  #: spelled expected argument (``desc.ptr``)
    line: int


def _unwrap_call(value: ast.AST) -> Optional[ast.Call]:
    if isinstance(value, (ast.Yield, ast.YieldFrom, ast.Await)) \
            and value.value is not None:
        value = value.value
    return value if isinstance(value, ast.Call) else None


def _operands(call: ast.Call) -> List[ast.expr]:
    """A verb call's own operands, pointer first: a cohort op is handed
    the context ahead of them."""
    return call.args[1:] if attr_tail(call.func) in COHORT_OPS else call.args


def find_relinquish_sites(fn: FunctionInfo) -> List[RelinquishSite]:
    sites: List[RelinquishSite] = []
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        call = _unwrap_call(node.value)
        if call is None or attr_tail(call.func) not in _CAS_TAILS:
            continue
        args = _operands(call)
        if len(args) < 3:
            continue
        ptr_text = expr_text(args[0])
        expected_text = expr_text(args[1])
        stored = args[2]
        if ptr_text is None or expected_text is None:
            continue
        if not (isinstance(stored, ast.Constant) and stored.value == 0):
            continue
        sites.append(RelinquishSite(
            site_id=len(sites), var=target.id, ptr_text=ptr_text,
            expected_text=expected_text, line=node.lineno))
    return sites


def _branch_site(test: ast.AST,
                 sites: List[RelinquishSite]) -> Optional[Tuple[RelinquishSite, bool]]:
    """Match ``v != expected`` / ``v == expected`` against a site;
    returns (site, true_edge_means_failed)."""
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.left, ast.Name)):
        return None
    op = test.ops[0]
    if not isinstance(op, (ast.NotEq, ast.Eq)):
        return None
    other = expr_text(test.comparators[0])
    if other is None:
        return None
    for site in sites:
        if site.var == test.left.id and site.expected_text == other:
            return site, isinstance(op, ast.NotEq)
    return None


def _walk_heads(node: CfgNode) -> Iterator[ast.AST]:
    for head in node.heads:
        yield from ast.walk(head)


# window-state tokens
_OBLIG = "oblig"   #: failed relinquish: handoff owed
_RELQ = "relq"     #: successful relinquish: ptr is no longer ours

WindowState = FrozenSet[Tuple[str, int]]


class _WindowAnalysis(ForwardAnalysis):
    """May-analysis of open handover obligations and relinquished
    pointers.  Join is union (a token on *any* path must be honoured);
    a store effect discharges every open obligation."""

    def __init__(self, ctx: DeepContext, fn: FunctionInfo,
                 sites: List[RelinquishSite]):
        self.ctx = ctx
        self.fn = fn
        self.sites = sites

    def initial(self) -> WindowState:
        return frozenset()

    def join(self, a: WindowState, b: WindowState) -> WindowState:
        return a | b

    def transfer(self, node: CfgNode, state: WindowState) -> WindowState:
        if not node.heads or not state:
            return state
        if any(tok == _OBLIG for tok, _ in state) and \
                any(self.ctx.effects.stmt_effects(h, self.fn).writes
                    for h in node.heads):
            state = frozenset((tok, sid) for tok, sid in state
                              if tok != _OBLIG)
        return state

    def transfer_edge(self, node: CfgNode, kind: str,
                      pre: WindowState, post: WindowState) -> WindowState:
        if kind == EXC:
            return pre
        if kind in (TRUE, FALSE) and node.heads:
            match = _branch_site(node.heads[0], self.sites)
            if match is not None:
                site, true_is_failed = match
                failed_edge = (kind == TRUE) == true_is_failed
                token = _OBLIG if failed_edge else _RELQ
                return post | {(token, site.site_id)}
        return post


def relinquish_windows(ctx: DeepContext, fn: FunctionInfo
                       ) -> Tuple[List[RelinquishSite], Cfg,
                                  Dict[int, WindowState]]:
    """(sites, cfg, state-before-each-node) for ``fn``; cached on the
    context so deep-protocol and deep-blocking share one solve."""
    key = ("windows", fn.qualname)
    cached = ctx.cache.get(key)
    if cached is None:
        sites = find_relinquish_sites(fn)
        cfg = ctx.cfg(fn)
        if sites:
            before = run_forward(cfg, _WindowAnalysis(ctx, fn, sites))
        else:
            before = {}
        cached = (sites, cfg, before)
        ctx.cache[key] = cached
    return cached  # type: ignore[return-value]


def _literal_elts(fn: FunctionInfo, expr: ast.AST) -> Optional[List[ast.expr]]:
    """Elements of a tuple/list literal, given inline or through a name
    ``fn`` binds to one — its first such binding: re-binding the name to
    a slice of itself, how a seeded defect drops a clause, is not one."""
    if isinstance(expr, ast.Name):
        expr = next((node.value for node in ast.walk(fn.node)
                     if isinstance(node, ast.Assign)
                     and isinstance(node.value, (ast.Tuple, ast.List))
                     and [expr_text(t) for t in node.targets] == [expr.id]),
                    expr)
    return expr.elts if isinstance(expr, (ast.Tuple, ast.List)) else None


RULE_ID = "deep-protocol"


class DeepProtocolRule(DeepRule):
    rule_id = RULE_ID
    description = ("paper-legal verb orders: complete wait predicates, "
                   "discharged handovers, no use-after-relinquish")

    def check_project(self, ctx: DeepContext) -> Iterator[Finding]:
        for fn in ctx.checked_functions():
            yield from self._check_wait_clauses(ctx, fn)
            yield from self._check_windows(ctx, fn)

    # -- P1 ----------------------------------------------------------------
    def _check_wait_clauses(self, ctx: DeepContext,
                               fn: FunctionInfo) -> Iterator[Finding]:
        for call in ctx.index.calls_in(fn):
            if attr_tail(call.func) not in _WAIT_COND_TAILS:
                continue
            args = [_literal_elts(fn, arg) for arg in call.args]
            if len(args) == 2 and None not in args and all(
                    isinstance(c, ast.Tuple) and c.elts for c in args[1]):
                read = {ast.dump(c.elts[0]) for c in args[1]}
                unread = ", ".join(ast.unparse(word) for word in args[0]
                                   if ast.dump(word) not in read)
                if not unread:
                    continue
                message = (f"watched word {unread} is no clause's word — no "
                           f"re-check() reads it, so a wakeup on it cannot "
                           f"change the decision and the waiter can sleep "
                           f"through the very transition it is parked on")
            else:
                message = ("cannot read the watched words and (word, predicate, "
                           "why) clauses of this wait — spell both as literals")
            yield ctx.finding(fn, call.lineno, call.col_offset, self.rule_id,
                              self.default_severity, message)

    # -- P2 / P3 -----------------------------------------------------------
    def _check_windows(self, ctx: DeepContext,
                       fn: FunctionInfo) -> Iterator[Finding]:
        sites, cfg, before = relinquish_windows(ctx, fn)
        if not sites:
            return
        analysis = _WindowAnalysis(ctx, fn, sites)
        # P2: obligation still open at a normal exit.
        for src, dst, kind in cfg.edges():
            if dst != cfg.exit or src not in before:
                continue
            node = cfg.node(src)
            pre = before[src]
            post = analysis.transfer(node, pre)
            carried = analysis.transfer_edge(node, kind, pre, post)
            for tok, sid in sorted(carried):
                if tok != _OBLIG:
                    continue
                site = sites[sid]
                yield ctx.finding(
                    fn, node.line, 0, self.rule_id, self.default_severity,
                    f"handover left undischarged: the failed relinquish "
                    f"CAS of {site.ptr_text} (line {site.line}) means a "
                    f"successor is enqueued, but this exit path never "
                    f"writes the handoff word — the successor spins on a "
                    f"word nobody will write")
        # P3: verb on a relinquished pointer.
        for idx in sorted(before):
            node = cfg.node(idx)
            if not node.heads:
                continue
            relinquished = {sites[sid].ptr_text
                            for tok, sid in before[idx] if tok == _RELQ}
            if not relinquished:
                continue
            for call in _walk_heads(node):
                if not isinstance(call, ast.Call):
                    continue
                operands = _operands(call)
                if attr_tail(call.func) not in _VERB_TAILS or not operands:
                    continue
                ptr = expr_text(operands[0])
                if ptr in relinquished:
                    yield ctx.finding(
                        fn, call.lineno, call.col_offset, self.rule_id,
                        self.default_severity,
                        f"verb touches {ptr} after the CAS that "
                        f"relinquished it — the word now belongs to the "
                        f"next enqueuer and this access races its swap")


# re-exported for deep-blocking (B3 shares the obligation window)
__all__ = [
    "DeepProtocolRule", "RelinquishSite", "find_relinquish_sites",
    "relinquish_windows", "RULE_ID",
]
