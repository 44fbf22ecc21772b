"""Per-function control-flow graphs and a worklist dataflow engine.

deep-lockset needs path-sensitivity the per-file rules don't: whether
a release is reached on *every* path to an exit, whether a descriptor
is still published when an exception escapes.  This module provides
the substrate:

* :func:`build_cfg` — a statement-level CFG for one function body.
  Nodes are individual statements (or branch conditions); edges carry a
  kind: ``normal``, ``true``/``false`` (branch outcomes, including a
  loop's iterate/exhaust pair) and ``exc`` (exceptional flow into the
  nearest handler or the function's exceptional exit).  Two synthetic
  exits — ``EXIT`` for returns/fall-through and ``RAISE`` for
  uncaught exceptions — let analyses distinguish "ends holding" from
  "ends raised".
* :class:`ForwardAnalysis` / :func:`run_forward` — a monotone forward
  worklist solver.  States are analysis-defined immutable values; the
  engine iterates to fixpoint with deterministic node order (a property
  simlint holds itself to everywhere).

Exception edges are generated only at statements the ``raises``
predicate accepts (by default: anything containing a call, ``yield``,
``await`` or ``assert``).  The deep pass narrows this with raise summaries —
a local arithmetic statement cannot fault a descriptor handoff, but a
remote verb under fault injection can — keeping "leaks on the
exceptional path" findings anchored to operations that really can
raise mid-protocol.

``finally`` blocks are materialized once: abrupt jumps (return / raise /
break / continue) route through the block, whose exit then rejoins every
recorded continuation.  That merges paths (a normal completion may
appear to reach ``RAISE``), which over-approximates *may* analyses and
is documented behaviour; none of the lock protocol code in scope relies
on finally-heavy control flow.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

NORMAL = "normal"
TRUE = "true"
FALSE = "false"
EXC = "exc"

#: node kinds
K_ENTRY = "entry"
K_EXIT = "exit"        #: normal function exit (return / fall-through)
K_RAISE = "raise"      #: exceptional function exit
K_STMT = "stmt"
K_COND = "cond"        #: branch condition (If/While test, For iterator)
K_FINALLY = "finally"  #: synthetic head of a finally block


@dataclass
class CfgNode:
    idx: int
    kind: str
    ast_node: Optional[ast.AST] = None
    #: the sub-ASTs that *execute at* this node.  For a plain statement
    #: that is the statement itself; for a branch node only the test /
    #: iterator (the body statements have their own nodes); for a
    #: ``with`` head the context-manager expressions.  Analyses walk
    #: ``heads`` — walking ``ast_node`` on a compound statement would
    #: double-apply the body's effects at the branch point.
    heads: Tuple[ast.AST, ...] = ()

    @property
    def line(self) -> int:
        return getattr(self.ast_node, "lineno", 0)


@dataclass
class Cfg:
    nodes: List[CfgNode] = field(default_factory=list)
    #: idx -> [(succ idx, edge kind)]
    succs: Dict[int, List[Tuple[int, str]]] = field(default_factory=dict)
    entry: int = 0
    exit: int = 1
    raise_exit: int = 2

    def node(self, idx: int) -> CfgNode:
        return self.nodes[idx]

    def edges(self) -> Iterable[Tuple[int, int, str]]:
        for src in sorted(self.succs):
            for dst, kind in self.succs[src]:
                yield src, dst, kind


def default_raises(stmt: ast.AST) -> bool:
    """Default raise-capability: any statement containing a call, yield,
    await or assert can transfer to the exceptional path."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Call, ast.Yield, ast.YieldFrom, ast.Await)):
            return True
    return False


class _Builder:
    def __init__(self, raises: Callable[[ast.AST], bool]):
        self.cfg = Cfg()
        self.raises = raises
        for kind in (K_ENTRY, K_EXIT, K_RAISE):
            self._new(kind, None)
        # stacks
        self._loops: List[Tuple[int, List[Tuple[int, str]]]] = []  # (header, break edges)
        self._exc_targets: List[List[int]] = [[self.cfg.raise_exit]]
        self._finallys: List[Tuple[int, List[int]]] = []  # (finally head, continuations)

    # -- plumbing ----------------------------------------------------------
    def _new(self, kind: str, node: Optional[ast.AST],
             heads: Optional[Tuple[ast.AST, ...]] = None) -> int:
        idx = len(self.cfg.nodes)
        if heads is None:
            heads = (node,) if (node is not None and kind == K_STMT) else ()
        self.cfg.nodes.append(CfgNode(idx, kind, node, heads))
        self.cfg.succs[idx] = []
        return idx

    def _edge(self, src: int, dst: int, kind: str) -> None:
        pair = (dst, kind)
        if pair not in self.cfg.succs[src]:
            self.cfg.succs[src].append(pair)

    def _connect(self, frontier: Sequence[Tuple[int, str]], dst: int) -> None:
        for src, kind in frontier:
            self._edge(src, dst, kind)

    def _abrupt(self, src: int, kind: str, ultimate: int) -> None:
        """Route an abrupt jump (return/raise/break/continue) through any
        enclosing finally blocks to ``ultimate``."""
        if self._finallys:
            head, conts = self._finallys[-1]
            self._edge(src, head, kind)
            if ultimate not in conts:
                conts.append(ultimate)
        else:
            self._edge(src, ultimate, kind)

    def _exc_edges(self, idx: int, stmt: ast.AST) -> None:
        if not self.raises(stmt):
            return
        for target in self._exc_targets[-1]:
            if target == self.cfg.raise_exit:
                self._abrupt(idx, EXC, target)
            else:
                self._edge(idx, target, EXC)

    # -- statement dispatch ------------------------------------------------
    def build(self, body: Sequence[ast.stmt]) -> Cfg:
        frontier = self._body(body, [(self.cfg.entry, NORMAL)])
        self._connect(frontier, self.cfg.exit)
        return self.cfg

    def _body(self, stmts: Sequence[ast.stmt],
              frontier: List[Tuple[int, str]]) -> List[Tuple[int, str]]:
        for stmt in stmts:
            if not frontier:
                break  # unreachable tail (after return/raise/break)
            frontier = self._stmt(stmt, frontier)
        return frontier

    def _stmt(self, stmt: ast.stmt,
              frontier: List[Tuple[int, str]]) -> List[Tuple[int, str]]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt, frontier)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            idx = self._new(K_STMT, stmt,
                            heads=tuple(i.context_expr for i in stmt.items))
            self._connect(frontier, idx)
            self._exc_edges(idx, stmt)
            return self._body(stmt.body, [(idx, NORMAL)])
        idx = self._new(K_STMT, stmt)
        self._connect(frontier, idx)
        if isinstance(stmt, ast.Return):
            self._abrupt(idx, NORMAL, self.cfg.exit)
            return []
        if isinstance(stmt, ast.Raise):
            for target in self._exc_targets[-1]:
                if target == self.cfg.raise_exit:
                    self._abrupt(idx, NORMAL, target)
                else:
                    self._edge(idx, target, NORMAL)
            return []
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1][1].append((idx, NORMAL))
            return []
        if isinstance(stmt, ast.Continue):
            if self._loops:
                self._edge(idx, self._loops[-1][0], NORMAL)
            return []
        self._exc_edges(idx, stmt)
        return [(idx, NORMAL)]

    def _if(self, stmt: ast.If,
            frontier: List[Tuple[int, str]]) -> List[Tuple[int, str]]:
        cond = self._new(K_COND, stmt, heads=(stmt.test,))
        self._connect(frontier, cond)
        self._exc_edges(cond, stmt.test)
        out = self._body(stmt.body, [(cond, TRUE)])
        if stmt.orelse:
            out = out + self._body(stmt.orelse, [(cond, FALSE)])
        else:
            out = out + [(cond, FALSE)]
        return out

    @staticmethod
    def _const_true(test: ast.AST) -> bool:
        return isinstance(test, ast.Constant) and bool(test.value)

    def _while(self, stmt: ast.While,
               frontier: List[Tuple[int, str]]) -> List[Tuple[int, str]]:
        cond = self._new(K_COND, stmt, heads=(stmt.test,))
        self._connect(frontier, cond)
        self._exc_edges(cond, stmt.test)
        breaks: List[Tuple[int, str]] = []
        self._loops.append((cond, breaks))
        body_out = self._body(stmt.body, [(cond, TRUE)])
        self._connect(body_out, cond)
        self._loops.pop()
        out = list(breaks)
        if not self._const_true(stmt.test):
            exits = [(cond, FALSE)]
            if stmt.orelse:
                exits = self._body(stmt.orelse, exits)
            out += exits
        return out

    def _for(self, stmt, frontier: List[Tuple[int, str]]) -> List[Tuple[int, str]]:
        cond = self._new(K_COND, stmt, heads=(stmt.iter,))
        self._connect(frontier, cond)
        self._exc_edges(cond, stmt.iter)
        breaks: List[Tuple[int, str]] = []
        self._loops.append((cond, breaks))
        body_out = self._body(stmt.body, [(cond, TRUE)])
        self._connect(body_out, cond)
        self._loops.pop()
        exits = [(cond, FALSE)]
        if stmt.orelse:
            exits = self._body(stmt.orelse, exits)
        return list(breaks) + exits

    def _try(self, stmt: ast.Try,
             frontier: List[Tuple[int, str]]) -> List[Tuple[int, str]]:
        fin_head: Optional[int] = None
        fin_conts: List[int] = []
        if stmt.finalbody:
            fin_head = self._new(K_FINALLY, stmt)
            self._finallys.append((fin_head, fin_conts))

        handler_heads = [self._new(K_STMT, h, heads=()) for h in stmt.handlers]
        bare = any(h.type is None or
                   (isinstance(h.type, ast.Name)
                    and h.type.id == "BaseException")
                   for h in stmt.handlers)
        targets = list(handler_heads)
        if not bare:
            targets += self._exc_targets[-1]
        self._exc_targets.append(targets if targets else
                                 list(self._exc_targets[-1]))
        body_out = self._body(stmt.body, list(frontier))
        self._exc_targets.pop()
        if stmt.orelse:
            body_out = self._body(stmt.orelse, body_out)

        out = list(body_out)
        for head, handler in zip(handler_heads, stmt.handlers):
            out += self._body(handler.body, [(head, NORMAL)])

        if fin_head is not None:
            self._finallys.pop()
            self._connect(out, fin_head)
            fin_out = self._body(stmt.finalbody, [(fin_head, NORMAL)])
            for cont in fin_conts:
                self._connect(fin_out, cont)
            return fin_out
        return out


def build_cfg(func: ast.AST,
              raises: Callable[[ast.AST], bool] = default_raises) -> Cfg:
    """CFG for one ``FunctionDef``/``AsyncFunctionDef`` body."""
    return _Builder(raises).build(func.body)  # type: ignore[attr-defined]


# --------------------------------------------------------------------------
# worklist solver
# --------------------------------------------------------------------------

class ForwardAnalysis:
    """Monotone forward dataflow over a :class:`Cfg`.

    Subclasses define the abstract state (any immutable, equality-
    comparable value), the join, and the transfer function.  The engine
    computes a fixpoint of states *before* each node; query with
    :meth:`run_forward`'s return value.

    ``transfer(node, state)`` → state after executing ``node``.
    ``transfer_edge(node, kind, pre, post)`` → state carried along one
    out-edge; the default sends ``post`` along normal/branch edges and
    ``join(pre, post)`` along ``exc`` edges (an exception may fire
    before or after the node's effect — both must be covered).
    Branch-sensitive analyses override it to refine on TRUE/FALSE.
    """

    def initial(self):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def transfer(self, node: CfgNode, state):
        return state

    def transfer_edge(self, node: CfgNode, kind: str, pre, post):
        if kind == EXC:
            return self.join(pre, post)
        return post


def run_forward(cfg: Cfg, analysis: ForwardAnalysis,
                max_iterations: int = 100_000) -> Dict[int, object]:
    """Solve ``analysis`` over ``cfg``; returns {node idx -> state
    before node} for every reachable node (unreachable nodes absent)."""
    before: Dict[int, object] = {cfg.entry: analysis.initial()}
    work: List[int] = [cfg.entry]
    iterations = 0
    while work:
        iterations += 1
        if iterations > max_iterations:  # pragma: no cover - defensive
            break
        idx = work.pop(0)
        node = cfg.nodes[idx]
        pre = before[idx]
        post = analysis.transfer(node, pre)
        for succ, kind in cfg.succs.get(idx, ()):
            carried = analysis.transfer_edge(node, kind, pre, post)
            if carried is None:
                continue
            old = before.get(succ)
            new = carried if old is None else analysis.join(old, carried)
            if old is None or new != old:
                before[succ] = new
                if succ not in work:
                    work.append(succ)
    return before
