"""deep-lockset: interprocedural acquire/release pairing.

The contract (paper §5.2 / ROADMAP item 4's "gauntlet"): every normal
exit from a ``lock()`` implementation has recorded the acquisition;
every normal exit from ``unlock()`` has recorded the release and
retired the descriptor; and no exceptional exit from ``lock()`` leaves
a descriptor published — a leaked descriptor wedges the one-descriptor-
per-thread discipline permanently (the exact failure ALock's
``except BaseException`` cleanup exists to prevent).

Two independent dimensions are tracked through a forward dataflow over
the shared CFG:

``acq``
    the acquisition oracle — set by ``_note_acquired(...)`` or by
    publishing a holder id (``x._holder_gid = <non-zero>``); cleared by
    ``_note_released(...)`` or ``x._holder_gid = 0``.
``desc``
    the descriptor lifecycle — set by a zero-argument ``.begin()`` call
    or ``x.in_use = True``; cleared by zero-argument ``.end()`` or
    ``x.in_use = False``.  (The zero-argument restriction keeps an
    unrelated ``x.end(arg)`` — same name tail, different protocol — out.)

Both dimensions are four-valued: ``ID`` (untouched), ``SET``, ``CLR``,
``MIX`` (differs by path).  Helpers are summarized interprocedurally
with the same analysis started from ``(ID, ID)``; a call site applies
the callee's summary, so ``lock()`` delegating the entire acquisition
to ``self._do_lock(ctx)`` still checks out.  Exception edges carry the
*pre*-state of the raising statement — a ``begin()`` that raises has
not published the descriptor (the documented begin-before-guard
semantics in :mod:`repro.locks.alock.alock`).

Findings are anchored to the exit-causing statement (the ``return``, the
raising call, or the final statement of a fall-through path), so an
inline suppression can target the one path that is intentional.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from repro.lint.dataflow import EXC, Cfg, CfgNode, ForwardAnalysis, run_forward
from repro.lint.deep import LOCK_BASE, DeepContext, DeepRule, is_machinery
from repro.lint.findings import Finding
from repro.lint.ir import FunctionInfo, attr_tail

#: four-valued dimension lattice
ID, SET, CLR, MIX = 0, 1, 2, 3

State = Tuple[int, int]  # (acq, desc)

_ACQ_CALLS = {"_note_acquired": SET, "_note_released": CLR}
_HOLDER_ATTR = "_holder_gid"
_DESC_CALLS = {"begin": SET, "end": CLR}
_DESC_ATTR = "in_use"


def _join_dim(a: int, b: int) -> int:
    return a if a == b else MIX


def _apply_dim(value: int, event: int) -> int:
    if event == ID:
        return value
    if event == MIX:
        return MIX
    return event


def _const_is(node: ast.AST, wanted: object) -> bool:
    return isinstance(node, ast.Constant) and node.value == wanted


def stmt_events(stmt: ast.AST, ctx: DeepContext,
                fn: FunctionInfo,
                summarize) -> List[Tuple[str, int]]:
    """Lockset events inside one statement, in AST walk order.  Each is
    ``("acq"|"desc", event)``; resolved helper calls contribute their
    interprocedural summary."""
    events: List[Tuple[str, int]] = []
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            tail = attr_tail(node.func)
            if tail in _ACQ_CALLS:
                events.append(("acq", _ACQ_CALLS[tail]))
            elif tail in _DESC_CALLS and not node.args and not node.keywords:
                events.append(("desc", _DESC_CALLS[tail]))
            else:
                for callee in ctx.index.resolve_call(node, fn):
                    acq_s, desc_s = summarize(callee)
                    if acq_s != ID:
                        events.append(("acq", acq_s))
                    if desc_s != ID:
                        events.append(("desc", desc_s))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                tail = attr_tail(target)
                if tail == _HOLDER_ATTR:
                    events.append(
                        ("acq", CLR if _const_is(node.value, 0) else SET))
                elif tail == _DESC_ATTR:
                    if _const_is(node.value, True):
                        events.append(("desc", SET))
                    elif _const_is(node.value, False):
                        events.append(("desc", CLR))
    return events


class _LockstateAnalysis(ForwardAnalysis):
    def __init__(self, ctx: DeepContext, fn: FunctionInfo, entry: State,
                 summarize):
        self.ctx = ctx
        self.fn = fn
        self.entry = entry
        self.summarize = summarize
        self._events: Dict[int, List[Tuple[str, int]]] = {}

    def initial(self) -> State:
        return self.entry

    def join(self, a: State, b: State) -> State:
        return (_join_dim(a[0], b[0]), _join_dim(a[1], b[1]))

    def transfer(self, node: CfgNode, state: State) -> State:
        if not node.heads:
            return state
        events = self._events.get(node.idx)
        if events is None:
            events = []
            for head in node.heads:
                events.extend(stmt_events(head, self.ctx, self.fn,
                                          self.summarize))
            self._events[node.idx] = events
        acq, desc = state
        for dim, event in events:
            if dim == "acq":
                acq = _apply_dim(acq, event)
            else:
                desc = _apply_dim(desc, event)
        return acq, desc

    def transfer_edge(self, node: CfgNode, kind: str,
                      pre: State, post: State) -> State:
        # An exception aborts the statement: its own events have not
        # happened (begin-before-guard semantics), earlier ones have.
        return pre if kind == EXC else post


def _solve(ctx: DeepContext, fn: FunctionInfo, entry: State,
           summarize) -> Tuple[Cfg, Dict[int, State]]:
    cfg = ctx.cfg(fn)
    analysis = _LockstateAnalysis(ctx, fn, entry, summarize)
    return cfg, run_forward(cfg, analysis)  # type: ignore[return-value]


def _exit_states(cfg: Cfg, before: Dict[int, State], exit_idx: int,
                 analysis_entry: State,
                 ctx: DeepContext, fn: FunctionInfo,
                 summarize) -> List[Tuple[CfgNode, State]]:
    """(predecessor node, state carried into the exit) for each edge
    into ``exit_idx`` — re-deriving the edge state the same way the
    solver did, so findings anchor to the exit-causing statement."""
    analysis = _LockstateAnalysis(ctx, fn, analysis_entry, summarize)
    out: List[Tuple[CfgNode, State]] = []
    for src, dst, kind in cfg.edges():
        if dst != exit_idx or src not in before:
            continue
        node = cfg.node(src)
        pre = before[src]
        post = analysis.transfer(node, pre)
        out.append((node, analysis.transfer_edge(node, kind, pre, post)))
    return out


class _Summarizer:
    """Memoized interprocedural (acq, desc) transfer summaries.

    A function's summary is the join over its normal exits of the
    analysis started from ``(ID, ID)``; recursion bottoms out at ID
    (conservative: an unresolved cycle contributes nothing, so it can
    hide an event but never invent one)."""

    def __init__(self, ctx: DeepContext):
        self.ctx = ctx
        self._memo: Dict[str, State] = {}
        self._busy: set[str] = set()

    def __call__(self, fn: FunctionInfo) -> State:
        cached = self._memo.get(fn.qualname)
        if cached is not None:
            return cached
        if fn.qualname in self._busy:
            return (ID, ID)
        self._busy.add(fn.qualname)
        try:
            cfg, before = _solve(self.ctx, fn, (ID, ID), self)
            exits = _exit_states(cfg, before, cfg.exit, (ID, ID),
                                 self.ctx, fn, self)
            if not exits:
                summary: State = (ID, ID)  # never returns normally
            else:
                acq = desc = None
                for _, (a, d) in exits:
                    acq = a if acq is None else _join_dim(acq, a)
                    desc = d if desc is None else _join_dim(desc, d)
                summary = (acq, desc)  # type: ignore[assignment]
        finally:
            self._busy.discard(fn.qualname)
        self._memo[fn.qualname] = summary
        return summary


RULE_ID = "deep-lockset"


class DeepLocksetRule(DeepRule):
    rule_id = RULE_ID
    description = ("lock()/unlock() acquire-release pairing and "
                   "descriptor lifecycle, proven across helpers")

    def check_project(self, ctx: DeepContext) -> Iterator[Finding]:
        summarize = _Summarizer(ctx)
        for cls_info in ctx.index.subclasses_of(LOCK_BASE):
            if is_machinery(cls_info.module):
                continue
            lock_fn = cls_info.methods.get("lock")
            if lock_fn is not None:
                yield from self._check_lock(ctx, cls_info.name, lock_fn,
                                            summarize)
            unlock_fn = cls_info.methods.get("unlock")
            if unlock_fn is not None:
                yield from self._check_unlock(ctx, cls_info.name, unlock_fn,
                                              summarize)

    # -- lock() ------------------------------------------------------------
    def _check_lock(self, ctx: DeepContext, cls_name: str,
                    fn: FunctionInfo, summarize) -> Iterator[Finding]:
        entry: State = (CLR, CLR)
        cfg, before = _solve(ctx, fn, entry, summarize)
        for node, (acq, _desc) in _exit_states(
                cfg, before, cfg.exit, entry, ctx, fn, summarize):
            if acq != SET:
                qualifier = ("on some path " if acq == MIX else "")
                yield ctx.finding(
                    fn, node.line, 0, self.rule_id, self.default_severity,
                    f"{cls_name}.lock() can return {qualifier}without "
                    f"recording the acquisition (_note_acquired / holder "
                    f"publish missing on this path)")
        # Normal exits keep the descriptor published by design (unlock
        # retires it); only exceptional exits must have cleaned up.
        for node, (_acq, desc) in _exit_states(
                cfg, before, cfg.raise_exit, entry, ctx, fn, summarize):
            if desc in (SET, MIX):
                qualifier = "may be" if desc == MIX else "is still"
                yield ctx.finding(
                    fn, node.line, 0, self.rule_id, self.default_severity,
                    f"{cls_name}.lock() can raise here while the descriptor "
                    f"{qualifier} published — release it (end() / "
                    f"in_use = False) before propagating, or the thread's "
                    f"descriptor is leaked for good")

    # -- unlock() ----------------------------------------------------------
    def _check_unlock(self, ctx: DeepContext, cls_name: str,
                      fn: FunctionInfo, summarize) -> Iterator[Finding]:
        # Descriptor dimension only applies if unlock (transitively)
        # manages a descriptor at all; locks without one stay vacuous.
        _acq_s, desc_s = summarize(fn)
        entry: State = (SET, SET if desc_s != ID else ID)
        cfg, before = _solve(ctx, fn, entry, summarize)
        for node, (acq, desc) in _exit_states(
                cfg, before, cfg.exit, entry, ctx, fn, summarize):
            if acq != CLR:
                qualifier = ("on some path " if acq == MIX else "")
                yield ctx.finding(
                    fn, node.line, 0, self.rule_id, self.default_severity,
                    f"{cls_name}.unlock() can return {qualifier}without "
                    f"recording the release (_note_released / holder clear "
                    f"missing on this path)")
            if desc in (SET, MIX):
                qualifier = ("on some path " if desc == MIX else "")
                yield ctx.finding(
                    fn, node.line, 0, self.rule_id, self.default_severity,
                    f"{cls_name}.unlock() can return {qualifier}with the "
                    f"descriptor still held (end() / in_use = False missing "
                    f"on this path)")
