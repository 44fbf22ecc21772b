"""Transitive raise summaries over the simlint call graph.

Each indexed function gets one bit — can a call of it raise? — computed
bottom-up to a fixpoint over the :class:`~repro.lint.ir.ProjectIndex`
may-call graph.  The deep pass uses it to place CFG exception edges
(:meth:`EffectEngine.stmt_raises`), so deep-lockset's "leaks on the
exceptional path" findings fire only where an exception can actually
originate.

Simulator machinery (the verbs API, local region ops, waits) is
modelled by **intrinsics** — a fixed name-keyed table consulted before
call resolution — rather than by analyzing its implementation, so
machinery internals never leak into lock summaries.  The table encodes
the simulator's contract: remote verbs and waits raise (fault injection
can fail a verb, an interrupt can end a wait), local region ops are
audited infallible accessors.  ALock's per-cohort ops
(``cohort.tail_cas`` / ``cohort.neighbor_write``) are the shared-memory
*or* the verbs op depending on data the lint cannot see, so they raise
as the verb would.  Unresolved calls default to not raising — unknown
helpers (logging, math, formatting) vastly outnumber unknown raisers —
except an unresolved ``.lock()`` / ``.acquire()`` / ``.request()``,
which is assumed to raise like any wait.
"""

from __future__ import annotations

import ast
from typing import Dict

from repro.lint.ir import FunctionInfo, ProjectIndex, attr_tail

#: simulator-machinery contract, keyed by the call name's last segment:
#: can the call raise?  Consulted *before* call resolution.
INTRINSICS: Dict[str, bool] = {
    "wait_local": True, "wait_local_cond": True,
    "r_read": True, "r_write": True, "r_cas": True, "r_faa": True,
    "tail_cas": True, "neighbor_write": True,
    "read": False, "write": False, "cas": False, "faa": False,
    "fence": False, "emit": False, "timeout": False,
    "watch": False, "watch_any": False,
    # The oracle markers assert invariants (double-acquire, release
    # without hold) that only fire when the protocol is already broken
    # and the run is dead; modelling them as raise-capable would flag
    # every lock() as "can raise after publishing".
    "_note_acquired": False, "_note_released": False,
}

#: unresolved calls with these tails are assumed to acquire something.
_ACQUIRE_TAILS = frozenset({"lock", "acquire", "admit", "request"})


class EffectEngine:
    """Fixpoint raise summaries for one :class:`ProjectIndex`."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        self._memo: Dict[str, bool] = {}
        self._solved: set[str] = set()

    # -- queries -----------------------------------------------------------
    def function_raises(self, fn: FunctionInfo) -> bool:
        """Transitive summary of ``fn`` (memoized; cycles converge via
        fixpoint iteration over the call-graph closure)."""
        if fn.qualname not in self._solved:
            self._solve(fn)
        return self._memo[fn.qualname]

    def call_raises(self, call: ast.Call, caller: FunctionInfo) -> bool:
        """One call site: the intrinsic contract if the name is
        machinery, else whether any resolved callee raises, else the
        acquire fallback."""
        tail = attr_tail(call.func)
        if tail in INTRINSICS:
            return INTRINSICS[tail]
        callees = self.index.resolve_call(call, caller)
        if callees:
            return any(self.function_raises(callee) for callee in callees)
        return tail in _ACQUIRE_TAILS

    def stmt_raises(self, stmt: ast.AST, caller: FunctionInfo) -> bool:
        """Raise-capability predicate for CFG construction: explicit
        raise/assert, or any contained call that can raise."""
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            return True
        return any(isinstance(node, ast.Call) and self.call_raises(node, caller)
                   for node in ast.walk(stmt))

    # -- solving -----------------------------------------------------------
    def _local_and_deps(self, fn: FunctionInfo
                        ) -> tuple[bool, Dict[str, FunctionInfo]]:
        """(can ``fn``'s own body raise through an intrinsic, a ``raise``
        or an unresolved acquire; its non-intrinsic callees)."""
        local = False
        deps: Dict[str, FunctionInfo] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Raise):
                local = True
            elif isinstance(node, ast.Call):
                tail = attr_tail(node.func)
                if tail in INTRINSICS:
                    local = local or INTRINSICS[tail]
                    continue
                callees = self.index.resolve_call(node, fn)
                for callee in callees:
                    deps.setdefault(callee.qualname, callee)
                if not callees and tail in _ACQUIRE_TAILS:
                    local = True
        return local, deps

    def _solve(self, root: FunctionInfo) -> None:
        closure: Dict[str, FunctionInfo] = {}
        stack = [root]
        locals_: Dict[str, bool] = {}
        deps: Dict[str, Dict[str, FunctionInfo]] = {}
        while stack:
            fn = stack.pop()
            if fn.qualname in closure or fn.qualname in self._solved:
                continue
            closure[fn.qualname] = fn
            locals_[fn.qualname], deps[fn.qualname] = self._local_and_deps(fn)
            stack.extend(deps[fn.qualname].values())
        order = sorted(closure)
        for qual in order:
            self._memo.setdefault(qual, locals_[qual])
        changed = True
        while changed:
            changed = False
            for qual in order:
                new = locals_[qual] or any(self._memo.get(dep, False)
                                           for dep in sorted(deps[qual]))
                if new != self._memo[qual]:
                    self._memo[qual] = new
                    changed = True
        self._solved.update(order)
