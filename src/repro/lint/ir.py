"""Project-wide IR for simlint's deep pass: index and call graph.

The per-file rules see one AST at a time; the deep analyses
(:mod:`repro.lint.locksets`, :mod:`repro.lint.blocking`) need to know
*which* function a call lands in, across files.  :class:`ProjectIndex`
provides that: every module, class and function in the linted tree,
plus a conservatively resolved call graph.

Resolution is deliberately static and name-based — simlint never
imports the code it analyzes — so it is a *may* call graph:

* ``self.m()`` resolves through the receiver's class and its indexed
  base classes (single inheritance chains, matched by base *name*);
* bare ``f()`` resolves to a module-level function of the caller's
  module, or through ``from x import f`` / ``import x`` aliases when
  the target module is indexed;
* ``obj.m()`` with an unresolvable receiver falls back to unique-name
  matching: if exactly one indexed function is named ``m`` it is taken
  as the (may-)callee, otherwise every candidate is returned.  Analyses
  that need soundness join over all candidates.

Like everything in simlint, iteration orders are fixed (sorted
qualnames) so reports are byte-identical across runs and
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.source import SourceFile


def expr_text(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def attr_tail(node: ast.AST) -> Optional[str]:
    """Last attribute segment of an expression (``lock.victim_ptr`` →
    ``victim_ptr``); for a bare name, the name itself.  Used to match
    pointer expressions across helper boundaries, where the *object*
    spelling changes but the field name does not."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


@dataclass
class FunctionInfo:
    """One function or method in the indexed tree."""

    qualname: str                #: ``module:Class.meth`` / ``module:func``
    module: str
    name: str
    cls: Optional[str]           #: simple class name, None for functions
    node: ast.AST                #: FunctionDef | AsyncFunctionDef
    sf: SourceFile

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<fn {self.qualname}>"


@dataclass
class ClassInfo:
    """One class in the indexed tree."""

    qualname: str                #: ``module:Class``
    module: str
    name: str
    node: ast.ClassDef
    sf: SourceFile
    bases: Tuple[str, ...] = ()  #: base names as written (dotted text)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)

    def base_tails(self) -> Tuple[str, ...]:
        """Last segment of each base name (``locks.base.DistributedLock``
        → ``DistributedLock``)."""
        return tuple(b.rsplit(".", 1)[-1] for b in self.bases)


class ProjectIndex:
    """Modules, classes, functions and the call graph of one lint run."""

    def __init__(self) -> None:
        self.files: List[SourceFile] = []
        self.modules: Dict[str, SourceFile] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: simple function name -> sorted qualnames (for unique-name fallback)
        self._by_name: Dict[str, List[str]] = {}
        #: (module, name) -> qualname for module-level functions
        self._module_funcs: Dict[Tuple[str, str], str] = {}
        #: module -> {local alias -> imported dotted target}
        self._imports: Dict[str, Dict[str, str]] = {}
        #: class simple name -> sorted class qualnames
        self._classes_by_name: Dict[str, List[str]] = {}
        self._callee_cache: Dict[str, Tuple[FunctionInfo, ...]] = {}

    # -- construction ------------------------------------------------------
    @classmethod
    def build(cls, files: Sequence[SourceFile]) -> "ProjectIndex":
        index = cls()
        for sf in sorted(files, key=lambda s: s.display):
            index._add_file(sf)
        for table in (index._by_name, index._classes_by_name):
            for key in table:
                table[key].sort()
        return index

    def _add_file(self, sf: SourceFile) -> None:
        self.files.append(sf)
        self.modules[sf.module] = sf
        imports: Dict[str, str] = {}
        self._imports[sf.module] = imports
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imports[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for stmt in sf.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(sf, stmt, cls_name=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(sf, stmt)

    def _add_class(self, sf: SourceFile, node: ast.ClassDef) -> None:
        qualname = f"{sf.module}:{node.name}"
        bases = tuple(t for t in (expr_text(b) for b in node.bases) if t)
        info = ClassInfo(qualname=qualname, module=sf.module, name=node.name,
                         node=node, sf=sf, bases=bases)
        self.classes[qualname] = info
        self._classes_by_name.setdefault(node.name, []).append(qualname)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[stmt.name] = self._add_function(
                    sf, stmt, cls_name=node.name)

    def _add_function(self, sf: SourceFile, node: ast.AST,
                      cls_name: Optional[str]) -> FunctionInfo:
        name = node.name  # type: ignore[attr-defined]
        qual = (f"{sf.module}:{cls_name}.{name}" if cls_name
                else f"{sf.module}:{name}")
        info = FunctionInfo(qualname=qual, module=sf.module, name=name,
                            cls=cls_name, node=node, sf=sf)
        self.functions[qual] = info
        self._by_name.setdefault(name, []).append(qual)
        if cls_name is None:
            self._module_funcs[(sf.module, name)] = qual
        return info

    # -- class hierarchy ---------------------------------------------------
    def subclasses_of(self, base_name: str) -> List[ClassInfo]:
        """Indexed classes deriving (transitively, by base *name*) from
        ``base_name``.  Matching is on the last segment of the written
        base, so both ``DistributedLock`` and ``base.DistributedLock``
        count — the base itself need not be indexed (fixtures)."""
        roots = {base_name}
        out: List[ClassInfo] = []
        changed = True
        matched: set = set()
        while changed:
            changed = False
            for qual in sorted(self.classes):
                if qual in matched:
                    continue
                info = self.classes[qual]
                if any(tail in roots for tail in info.base_tails()):
                    matched.add(qual)
                    roots.add(info.name)
                    out.append(info)
                    changed = True
        out.sort(key=lambda c: c.qualname)
        return out

    def mro_method(self, cls_info: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Look up ``name`` through ``cls_info`` and its indexed base
        chain (depth-first over base names, cycles guarded)."""
        seen: set = set()
        stack = [cls_info]
        while stack:
            cur = stack.pop(0)
            if cur.qualname in seen:
                continue
            seen.add(cur.qualname)
            if name in cur.methods:
                return cur.methods[name]
            for tail in cur.base_tails():
                for qual in self._classes_by_name.get(tail, ()):
                    stack.append(self.classes[qual])
        return None

    # -- call resolution ---------------------------------------------------
    def resolve_call(self, call: ast.Call,
                     caller: FunctionInfo) -> List[FunctionInfo]:
        """May-callees of one call site (empty when nothing indexed
        plausibly matches — e.g. stdlib or simulator-machinery calls,
        which analyses model as intrinsics instead)."""
        func = call.func
        # self.m(...) — resolve through the receiver class's chain.
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls") and caller.cls):
            cls_info = self.classes.get(f"{caller.module}:{caller.cls}")
            if cls_info is not None:
                hit = self.mro_method(cls_info, func.attr)
                if hit is not None:
                    return [hit]
            return self._by_unique_name(func.attr)
        named = self._resolve_named(func, caller)
        if named is not None:
            return named
        # obj.m(...) — unique-name fallback.
        if isinstance(func, ast.Attribute):
            return self._by_unique_name(func.attr)
        return []

    def _resolve_named(self, func: ast.AST,
                       caller: FunctionInfo) -> Optional[List[FunctionInfo]]:
        """The function(s) ``func`` *names* statically, called or not;
        None when it is no bare name or import-qualified path (a method
        on some object, say)."""
        # bare f — same module, then imports.
        if isinstance(func, ast.Name):
            qual = self._module_funcs.get((caller.module, func.id))
            if qual is not None:
                return [self.functions[qual]]
            target = self._imports.get(caller.module, {}).get(func.id)
            if target is not None:
                return self._resolve_dotted(target)
            # nested def in the same function body
            for sub in ast.walk(caller.node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and sub is not caller.node and sub.name == func.id:
                    nested = FunctionInfo(
                        qualname=f"{caller.qualname}.<{func.id}>",
                        module=caller.module, name=func.id, cls=caller.cls,
                        node=sub, sf=caller.sf)
                    return [nested]
            return []
        # mod.f / pkg.mod.f via the import table.
        dotted = expr_text(func)
        if dotted is not None and "." in dotted:
            head, rest = dotted.split(".", 1)
            target = self._imports.get(caller.module, {}).get(head)
            if target is not None:
                return self._resolve_dotted(f"{target}.{rest}")
        return None

    def _resolve_dotted(self, dotted: str) -> List[FunctionInfo]:
        """``pkg.mod.func`` / ``pkg.mod.Class.meth`` against the index."""
        if ":" not in dotted and "." in dotted:
            mod, name = dotted.rsplit(".", 1)
            qual = self._module_funcs.get((mod, name))
            if qual is not None:
                return [self.functions[qual]]
            if "." in mod:
                outer, cls_name = mod.rsplit(".", 1)
                cls_info = self.classes.get(f"{outer}:{cls_name}")
                if cls_info is not None and name in cls_info.methods:
                    return [cls_info.methods[name]]
        return []

    def _by_unique_name(self, name: str) -> List[FunctionInfo]:
        quals = self._by_name.get(name, [])
        if len(quals) == 1:
            return [self.functions[quals[0]]]
        return []

    # -- call graph --------------------------------------------------------
    def callees(self, fn: FunctionInfo) -> Tuple[FunctionInfo, ...]:
        cached = self._callee_cache.get(fn.qualname)
        if cached is not None:
            return cached
        out: Dict[str, FunctionInfo] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                hits = self.resolve_call(node, fn)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                # A function named without being called (ALock keeps
                # each cohort's Peterson side in a record) may be called
                # by whoever receives it, so it stays in the closure.
                hits = self._resolve_named(node, fn) or ()
            else:
                continue
            for callee in hits:
                out.setdefault(callee.qualname, callee)
        result = tuple(out[q] for q in sorted(out))
        self._callee_cache[fn.qualname] = result
        return result

    def reachable_from(self, roots: Sequence[FunctionInfo]) -> List[FunctionInfo]:
        """Call-graph closure of ``roots`` (roots included), sorted by
        qualname."""
        seen: Dict[str, FunctionInfo] = {}
        stack = list(roots)
        while stack:
            fn = stack.pop()
            if fn.qualname in seen:
                continue
            seen[fn.qualname] = fn
            stack.extend(self.callees(fn))
        return [seen[q] for q in sorted(seen)]
