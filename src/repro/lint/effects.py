"""Transitive effect summaries over the simlint call graph.

Each indexed function gets a small abstract summary — can it raise, can
it block (and is the block bounded), does it issue a remote write-effect
verb, does it park raw on a memory watch — computed bottom-up to a
fixpoint over the :class:`~repro.lint.ir.ProjectIndex` may-call graph.
The deep analyses consume these three ways:

* the lockset pass parameterizes CFG exception edges with
  :meth:`EffectEngine.stmt_raises`, so "leaks on the exceptional path"
  findings fire only where an exception can actually originate;
* the protocol pass asks whether a handover obligation is discharged by
  a statement with a *write* effect (directly, through a helper, or
  through a cohort's ``neighbor_write``);
* the blocking pass reads the blocking level and raw-park bit directly.

Simulator machinery (the verbs API, local region ops, waits) is
modelled by **intrinsics** — a fixed name-keyed table consulted before
call resolution — rather than by analyzing its implementation.  The
machinery legitimately parks, spins and retries internally; summarizing
it symbolically keeps those internals from bleeding into every lock
that calls ``ctx.r_cas``.  The table encodes the simulator's contract:

======================  ========== ======= ======
call (by name tail)     blocking   raises  writes
======================  ========== ======= ======
``wait_local*``         unbounded  yes     no
``r_read``              bounded    yes     no
``r_write/r_cas/r_faa`` bounded    yes     yes
``write/cas/faa``       none       no      yes
``tail_cas``            bounded    yes     yes
``neighbor_write``      bounded    yes     yes
``read`` / ``fence``    none       no      no
``timeout``             bounded    no      no
``yield <delay>``       bounded    no      no
======================  ========== ======= ======

The last row is not a call: a process sleeps by yielding a float delay
(:mod:`repro.sim.core`), recognized syntactically by :func:`is_sleep` —
including the delay a computed FIFO stage hands back,
``yield <pipeline>.transit(...) [+ delay]``
(:class:`repro.sim.resources.Pipeline`), and a fence's,
``yield ctx.fence()``: the ``fence`` call only returns the delay.

Remote verbs "raise" because fault injection (PR 1) can fail them;
local region ops are audited infallible accessors.  The ``writes``
bit marks *store* effect regardless of locality — the local-cohort
half of ALock discharges its budget handover with a plain ``write``,
and the protocol pass must accept that discharge.  Unresolved calls
default to *inert* — a deliberate precision/recall trade: unknown
helpers (logging, math, formatting) vastly outnumber unknown blockers,
and the blockers that matter in lock code go through the verbs API,
which *is* modelled.  The one exception: an unresolved ``.lock()`` /
``.acquire()`` / ``.request()`` is assumed unbounded-blocking and
raising, since acquiring *anything* while holding protocol state is
exactly what deep-blocking exists to catch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.lint.ir import FunctionInfo, ProjectIndex, attr_tail

#: blocking lattice: NONE < BOUNDED < UNBOUNDED
BLOCK_NONE = 0
BLOCK_BOUNDED = 1
BLOCK_UNBOUNDED = 2

_BLOCK_LABEL = {BLOCK_NONE: "none", BLOCK_BOUNDED: "bounded",
                BLOCK_UNBOUNDED: "unbounded"}


@dataclass(frozen=True)
class Effects:
    """Abstract effect summary of a call or function."""

    blocking: int = BLOCK_NONE
    raises: bool = False
    writes: bool = False      #: issues a remote write-effect verb
    parks_raw: bool = False   #: contains a raw ``yield region.watch(...)``

    def join(self, other: "Effects") -> "Effects":
        return Effects(
            blocking=max(self.blocking, other.blocking),
            raises=self.raises or other.raises,
            writes=self.writes or other.writes,
            parks_raw=self.parks_raw or other.parks_raw,
        )

    @property
    def blocking_label(self) -> str:
        return _BLOCK_LABEL[self.blocking]


INERT = Effects()

#: simulator-machinery contract, keyed by the call name's last segment.
#: Consulted *before* call resolution so machinery internals never leak
#: into lock summaries.
INTRINSICS: Dict[str, Effects] = {
    "wait_local": Effects(blocking=BLOCK_UNBOUNDED, raises=True),
    "wait_local_cond": Effects(blocking=BLOCK_UNBOUNDED, raises=True),
    "r_read": Effects(blocking=BLOCK_BOUNDED, raises=True),
    "r_write": Effects(blocking=BLOCK_BOUNDED, raises=True, writes=True),
    "r_cas": Effects(blocking=BLOCK_BOUNDED, raises=True, writes=True),
    "r_faa": Effects(blocking=BLOCK_BOUNDED, raises=True, writes=True),
    "read": INERT,
    "write": Effects(writes=True),
    "cas": Effects(writes=True),
    "faa": Effects(writes=True),
    "fence": INERT,
    "emit": INERT,
    "timeout": Effects(blocking=BLOCK_BOUNDED),
    "watch": INERT,       # returns an event; the park is the *yield* of it
    "watch_any": INERT,
    # The oracle markers assert invariants (double-acquire, release
    # without hold) that only fire when the protocol is already broken
    # and the run is dead; modelling them as raise-capable would flag
    # every lock() as "can raise after publishing".
    "_note_acquired": INERT,
    "_note_released": INERT,
}

#: ALock states Algorithm 3 once over a per-cohort record whose ops are
#: the shared-memory *or* the verbs family's, called with the context
#: first: ``cohort.tail_cas(ctx, ptr, expected, new)``.  Which family is
#: data the lint cannot see, so the contract is the join of the two.
COHORT_OPS = {"tail_cas": ("cas", "r_cas"),
              "neighbor_write": ("write", "r_write")}
INTRINSICS.update({tail: INTRINSICS[shared].join(INTRINSICS[verb])
                   for tail, (shared, verb) in COHORT_OPS.items()})

#: unresolved calls with these tails are assumed to acquire something.
_ACQUIRE_TAILS = frozenset({"lock", "acquire", "admit", "request"})
_ACQUIRE_EFFECTS = Effects(blocking=BLOCK_UNBOUNDED, raises=True)

#: yields of calls with these tails are raw parks (one-shot wakeups
#: armed at yield time — the check-then-park shape deep-blocking hunts).
_PARK_TAILS = frozenset({"watch", "watch_any"})


def is_raw_park(node: ast.AST) -> bool:
    """True for ``yield <expr>.watch(...)`` / ``yield <expr>.watch_any(...)``."""
    return (isinstance(node, ast.Yield)
            and isinstance(node.value, ast.Call)
            and attr_tail(node.value.func) in _PARK_TAILS)


def is_sleep(node: ast.AST) -> bool:
    """True for ``yield <delay>``, the engine's sleep form — a timed
    (bounded) wait, like ``timeout``.  The yielded float is recognized
    by shape: a numeric literal, arithmetic, ``float(...)``, a call that
    returns a delay — a computed stage's ``<pipeline>.transit(...)`` (its
    time to departure), ``<ctx>.fence()`` — or a name that by the repo's
    convention holds a duration (``*_ns``, ``delay``).  Any other
    yielded name is an event and stays inert."""
    if not isinstance(node, ast.Yield) or node.value is None:
        return False
    value = node.value
    if isinstance(value, ast.Constant):
        return isinstance(value.value, (int, float)) \
            and not isinstance(value.value, bool)
    if isinstance(value, ast.BinOp):
        return True
    if isinstance(value, ast.Call):
        if isinstance(value.func, ast.Name):
            return value.func.id == "float"
        return attr_tail(value.func) in ("transit", "fence")
    tail = attr_tail(value)
    return tail is not None and (tail.endswith("_ns") or tail == "delay")


_SLEEP_EFFECTS = Effects(blocking=BLOCK_BOUNDED)


def iter_raw_parks(fn_node: ast.AST) -> Iterator[ast.Yield]:
    for node in ast.walk(fn_node):
        if is_raw_park(node):
            yield node  # type: ignore[misc]


class EffectEngine:
    """Fixpoint effect summaries for one :class:`ProjectIndex`."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        self._memo: Dict[str, Effects] = {}
        self._solved: set[str] = set()

    # -- queries -----------------------------------------------------------
    def function_effects(self, fn: FunctionInfo) -> Effects:
        """Transitive summary of ``fn`` (memoized; cycles converge via
        fixpoint iteration over the call-graph closure)."""
        if fn.qualname not in self._solved:
            self._solve(fn)
        return self._memo[fn.qualname]

    def call_effects(self, call: ast.Call, caller: FunctionInfo) -> Effects:
        """Summary of one call site: intrinsic contract if the name is
        machinery, else the join of resolved callees' summaries, else
        the inert/acquire fallback."""
        tail = attr_tail(call.func)
        if tail in INTRINSICS:
            return INTRINSICS[tail]
        callees = self.index.resolve_call(call, caller)
        if callees:
            out = INERT
            for callee in callees:
                out = out.join(self.function_effects(callee))
            return out
        if tail in _ACQUIRE_TAILS:
            return _ACQUIRE_EFFECTS
        return INERT

    def stmt_raises(self, stmt: ast.AST, caller: FunctionInfo) -> bool:
        """Raise-capability predicate for CFG construction: explicit
        raise/assert, or any contained call whose summary raises."""
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            return True
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and \
                    self.call_effects(node, caller).raises:
                return True
        return False

    def stmt_effects(self, stmt: ast.AST, caller: FunctionInfo) -> Effects:
        """Join of all call summaries (and raw parks) inside a statement."""
        out = INERT
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                out = out.join(self.call_effects(node, caller))
            elif is_raw_park(node):
                out = out.join(Effects(blocking=BLOCK_UNBOUNDED,
                                       parks_raw=True))
            elif is_sleep(node):
                out = out.join(_SLEEP_EFFECTS)
        return out

    # -- solving -----------------------------------------------------------
    def _local_and_deps(self, fn: FunctionInfo):
        """(intrinsic-only effects of ``fn``'s own body, non-intrinsic
        callee deps).  Cached per function."""
        local = INERT
        deps: Dict[str, FunctionInfo] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                tail = attr_tail(node.func)
                if tail in INTRINSICS:
                    local = local.join(INTRINSICS[tail])
                    continue
                callees = self.index.resolve_call(node, fn)
                if callees:
                    for callee in callees:
                        deps.setdefault(callee.qualname, callee)
                elif tail in _ACQUIRE_TAILS:
                    local = local.join(_ACQUIRE_EFFECTS)
            elif isinstance(node, ast.Raise):
                local = local.join(Effects(raises=True))
            elif is_raw_park(node):
                local = local.join(Effects(blocking=BLOCK_UNBOUNDED,
                                           parks_raw=True))
            elif is_sleep(node):
                local = local.join(_SLEEP_EFFECTS)
        return local, deps

    def _solve(self, root: FunctionInfo) -> None:
        closure: Dict[str, FunctionInfo] = {}
        stack = [root]
        locals_: Dict[str, Effects] = {}
        deps: Dict[str, Dict[str, FunctionInfo]] = {}
        while stack:
            fn = stack.pop()
            if fn.qualname in closure or fn.qualname in self._solved:
                continue
            closure[fn.qualname] = fn
            local, fn_deps = self._local_and_deps(fn)
            locals_[fn.qualname] = local
            deps[fn.qualname] = fn_deps
            stack.extend(fn_deps.values())
        order = sorted(closure)
        for qual in order:
            self._memo.setdefault(qual, locals_[qual])
        changed = True
        while changed:
            changed = False
            for qual in order:
                new = locals_[qual]
                for dep_qual in sorted(deps[qual]):
                    new = new.join(self._memo.get(dep_qual, INERT))
                if new != self._memo[qual]:
                    self._memo[qual] = new
                    changed = True
        self._solved.update(order)


def deep_scope(index: ProjectIndex,
               base_name: str = "DistributedLock") -> Dict[str, FunctionInfo]:
    """The functions the deep rules police: every method of every class
    deriving (by name, transitively) from ``base_name``, plus the
    call-graph closure of those methods.  Sorted dict keyed by qualname.

    Machinery reached through the closure (pools, descriptors, local
    helpers) is analyzed too — a release hidden three helpers down still
    counts — but findings are *reported* at the statement inside the
    scope function where the path condition holds.
    """
    roots = []
    for cls_info in index.subclasses_of(base_name):
        for name in sorted(cls_info.methods):
            roots.append(cls_info.methods[name])
    return {fn.qualname: fn for fn in index.reachable_from(roots)}
