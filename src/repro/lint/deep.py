"""Deep-pass scaffolding: project context, rule base, registry.

Per-file rules (:mod:`repro.lint.rules`) see one AST at a time.  Deep
rules see the whole tree through a :class:`DeepContext` — the
:class:`~repro.lint.ir.ProjectIndex`, the raise summaries of
:class:`~repro.lint.effects.EffectEngine`, the set of functions in
scope, and a CFG cache — and report ordinary
:class:`~repro.lint.findings.Finding` objects, so suppression comments
apply to them unchanged.  Two rules use it: ``deep-lockset`` and
``deep-blocking`` (``docs/architecture.md`` records why each exists).

Scope
    The deep rules police the **lock protocol surface**: every method of
    every class whose base chain names ``DistributedLock`` (matched by
    name, so fixture files parsed standalone still qualify), plus the
    call-graph closure of those methods.  Simulator machinery reached
    through the closure — ``repro.sim``, ``repro.memory``,
    ``repro.cluster``, ``repro.rdma``, ``repro.obs``, ``repro.common``
    — is *summarized* (it feeds the raise summaries) but never
    *reported on*: its internals legitimately park, spin and retry, and
    its contract is what the intrinsics table in
    :mod:`repro.lint.effects` encodes.

Suppressing a deep finding works like any other simlint finding::

    # the raw park IS the seeded bug
    # simlint: ignore[deep-blocking]
    yield region.watch(addr)
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.dataflow import Cfg, build_cfg
from repro.lint.effects import EffectEngine
from repro.lint.findings import ERROR, Finding
from repro.lint.ir import FunctionInfo, ProjectIndex
from repro.lint.source import SourceFile

#: module prefixes whose functions are summarized but not path-checked.
MACHINERY_PREFIXES: Tuple[str, ...] = (
    "repro.sim", "repro.memory", "repro.cluster", "repro.rdma",
    "repro.obs", "repro.common", "repro.lint",
)

#: base-class name that puts a class's methods in deep scope.
LOCK_BASE = "DistributedLock"


def deep_scope(index: ProjectIndex) -> Dict[str, FunctionInfo]:
    """The functions the deep rules police: every method of every class
    deriving (by name, transitively) from :data:`LOCK_BASE`, plus the
    call-graph closure of those methods.  Sorted dict keyed by qualname.
    """
    roots = [cls_info.methods[name]
             for cls_info in index.subclasses_of(LOCK_BASE)
             for name in sorted(cls_info.methods)]
    return {fn.qualname: fn for fn in index.reachable_from(roots)}


def is_machinery(module: str) -> bool:
    return any(module == p or module.startswith(p + ".")
               for p in MACHINERY_PREFIXES)


class DeepContext:
    """Everything a deep rule needs about one lint run, built once."""

    def __init__(self, files: Sequence[SourceFile]):
        self.index = ProjectIndex.build(files)
        self.effects = EffectEngine(self.index)
        #: qualname -> FunctionInfo: lock methods + call-graph closure
        self.scope = deep_scope(self.index)
        self._cfgs: Dict[str, Cfg] = {}

    def checked_functions(self) -> List[FunctionInfo]:
        """Scope functions the path checks report on: not machinery, not
        synthetic nested-def entries (their bodies are walked as part of
        the enclosing function), sorted by qualname."""
        return [self.scope[q] for q in sorted(self.scope)
                if ".<" not in q and not is_machinery(self.scope[q].module)]

    def cfg(self, fn: FunctionInfo) -> Cfg:
        """CFG of ``fn`` with exception edges at statements that can
        raise (built once per function)."""
        cached = self._cfgs.get(fn.qualname)
        if cached is None:
            cached = build_cfg(
                fn.node, raises=lambda s: self.effects.stmt_raises(s, fn))
            self._cfgs[fn.qualname] = cached
        return cached

    def finding(self, fn: FunctionInfo, line: int, col: int, rule_id: str,
                severity: str, message: str) -> Finding:
        return Finding(fn.sf.display, line, col, rule_id, severity, message)


class DeepRule:
    """Base class for project-wide rules.

    Unlike :class:`~repro.lint.rules.Rule` (one file at a time), a deep
    rule's :meth:`check_project` sees the whole :class:`DeepContext` and
    may emit findings in any file.  Iteration inside must follow sorted
    orders (the context's accessors already do) so reports stay
    byte-identical across runs.
    """

    rule_id: str = ""
    description: str = ""
    default_severity: str = ERROR

    def check_project(self, ctx: DeepContext) -> Iterator[Finding]:
        raise NotImplementedError


def default_deep_rules() -> Tuple[DeepRule, ...]:
    """The shipped deep rules, in reporting order."""
    # Imported here, not at module top: the rule modules subclass
    # DeepRule, so a top-level import would be circular.
    from repro.lint.blocking import DeepBlockingRule
    from repro.lint.locksets import DeepLocksetRule

    return (DeepLocksetRule(), DeepBlockingRule())


def run_deep_rules(files: Sequence[SourceFile],
                   rules: Optional[Sequence[DeepRule]] = None,
                   ) -> List[Finding]:
    """Run deep rules over already-parsed files; returns sorted, de-duped
    findings (a nested helper reached from two lock classes must not
    report twice)."""
    if rules is None:
        rules = default_deep_rules()
    ctx = DeepContext(files)
    out: Dict[Finding, None] = {}
    for rule in rules:
        for finding in rule.check_project(ctx):
            out.setdefault(finding)
    return sorted(out)
