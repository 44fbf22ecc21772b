"""simlint's rule framework and the built-in rule set.

Each rule encodes one invariant the reproduction's validity rests on
(see ``docs/architecture.md`` § Static analysis):

``nondet-source``
    Simulation code must draw every stochastic or time-like value from
    :class:`repro.common.rng.RngStreams` / ``env.now`` — wall clocks,
    the ``random`` module, un-seeded numpy generators, ``uuid``/
    ``os.urandom``, and address-dependent ``id()``/``hash()`` all break
    bit-identical replay.

``unordered-iter``
    Iterating a ``set``/``frozenset`` in an event-ordering-sensitive
    package makes event order depend on ``PYTHONHASHSEED``.

``region-bypass``
    Writes to :class:`repro.memory.region.MemoryRegion` storage must go
    through the audited accessors; ``_store``/``_words`` and the NIC
    landing API are off-limits outside the memory/verbs layers, and a
    park on a region watcher (``.watch``/``.watch_any``) is off-limits
    outside the cluster/memory layers, whose ``wait_local*`` arms the
    watcher in the same dispatch as the failed read it guards.

``engine-chokepoint``
    ``heapq``/``bisect`` (a scheduler's building blocks) may only be
    imported by the event core, ``repro.sim.core``.

``emit-format``
    An argument of an event-log ``emit(...)`` call must be a raw value,
    not an f-string, ``%``/``.format`` result or ``str(...)`` — the log
    drops what its level does not keep, and a dropped event must cost a
    call, not a format.

Rules are pure functions of a :class:`~repro.lint.source.SourceFile`;
they never import or execute the code under analysis.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from repro.lint.findings import ERROR, WARNING, Finding
from repro.lint.source import SourceFile, ancestors

#: Packages forming the simulation core: everything here must be
#: deterministic given (spec, seed).
DEFAULT_SIM_PACKAGES: tuple[str, ...] = ("repro",)

#: Packages where *iteration order* feeds the event timeline or
#: user-visible output (counterexamples, traces, schedules).
DEFAULT_SENSITIVE_PACKAGES: tuple[str, ...] = (
    "repro.sim",
    "repro.rdma",
    "repro.locks",
    "repro.locktable",
    "repro.workload",
    "repro.memory",
    "repro.obs",
    "repro.verification",
    "repro.schedcheck",
    "repro.parallel",
)

#: The package that owns the protocol event log and its read-side
#: views — the one place allowed to turn raw event fields into text.
OBS_PACKAGE = "repro.obs"


# --------------------------------------------------------------------------
# shared AST helpers
# --------------------------------------------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def _block_fields(node: ast.AST) -> Iterator[list[ast.stmt]]:
    for name in ("body", "orelse", "finalbody"):
        block = getattr(node, name, None)
        if isinstance(block, list):
            yield block
    for handler in getattr(node, "handlers", []) or []:
        yield handler.body


def enclosing_function(node: ast.AST) -> Optional[ast.AST]:
    for anc in ancestors(node):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return anc
    return None


# --------------------------------------------------------------------------
# rule base
# --------------------------------------------------------------------------

class Rule:
    """Base class: subclasses set :attr:`rule_id` and implement
    :meth:`check`, yielding findings in source order (the engine re-sorts
    globally, so order here only needs to be deterministic)."""

    rule_id: str = ""
    description: str = ""
    default_severity: str = ERROR

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, sf: SourceFile, node: ast.AST, message: str,
                severity: Optional[str] = None) -> Finding:
        return Finding(
            file=sf.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            severity=severity or self.default_severity,
            message=message,
        )


# --------------------------------------------------------------------------
# rule 1: forbidden nondeterminism sources
# --------------------------------------------------------------------------

_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime",
})

#: last-two path segments of banned datetime constructors.
_DATETIME_TAILS = frozenset({
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
})

_ENTROPY_CALLS = frozenset({
    "uuid.uuid1", "uuid.uuid4", "os.urandom", "os.getrandom",
})

_NUMPY_ALIASES = frozenset({"np", "numpy"})


class NondetSourceRule(Rule):
    """Nondeterminism sources outside :class:`RngStreams` in sim code."""

    rule_id = "nondet-source"
    description = ("simulation code must derive randomness from RngStreams "
                   "and time from env.now — never the wall clock, the "
                   "global random module, or process addresses")

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        if not sf.in_package(*DEFAULT_SIM_PACKAGES):
            return
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            sf, node,
                            "import of the global 'random' module; draw from "
                            "RngStreams (repro.common.rng) instead")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        sf, node,
                        "import from the global 'random' module; draw from "
                        "RngStreams (repro.common.rng) instead")
            elif isinstance(node, ast.Call):
                yield from self._check_call(sf, node)

    def _check_call(self, sf: SourceFile, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("id", "hash"):
            yield self.finding(
                sf, node,
                f"'{func.id}()' depends on process memory layout or "
                f"PYTHONHASHSEED; not reproducible across runs",
                severity=WARNING)
            return
        name = dotted_name(func)
        if name is None:
            return
        parts = name.split(".")
        if parts[0] == "random":
            yield self.finding(
                sf, node,
                f"'{name}()' uses the global random module; draw from an "
                f"RngStreams stream instead")
        elif parts[0] == "secrets":
            yield self.finding(
                sf, node, f"'{name}()' draws OS entropy; not reproducible")
        elif name in _WALLCLOCK_CALLS:
            yield self.finding(
                sf, node,
                f"'{name}()' reads the wall clock; simulation time is "
                f"env.now")
        elif name in _ENTROPY_CALLS:
            yield self.finding(
                sf, node, f"'{name}()' draws OS entropy; not reproducible")
        elif len(parts) >= 2 and tuple(parts[-2:]) in _DATETIME_TAILS:
            yield self.finding(
                sf, node,
                f"'{name}()' reads the wall clock; simulation time is "
                f"env.now")
        elif parts[-1] == "default_rng" and len(parts) >= 2 \
                and parts[-2] == "random":
            if not node.args or (isinstance(node.args[0], ast.Constant)
                                 and node.args[0].value is None):
                yield self.finding(
                    sf, node,
                    "un-seeded np.random.default_rng(); seed it via "
                    "derive_seed/RngStreams")
        elif (len(parts) == 3 and parts[0] in _NUMPY_ALIASES
              and parts[1] == "random" and parts[2] != "default_rng"
              and parts[2] not in ("Generator", "SeedSequence")):
            yield self.finding(
                sf, node,
                f"'{name}()' uses numpy's global RNG state; use a "
                f"Generator from RngStreams")


# --------------------------------------------------------------------------
# rule 2: iteration over unordered collections
# --------------------------------------------------------------------------

_SET_ANNOTATION_TAILS = frozenset({
    "set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet",
})

#: builtins that materialise their argument's iteration order.
_ORDER_MATERIALISERS = frozenset({"list", "tuple", "deque", "enumerate", "iter"})


def _annotation_is_set(ann: Optional[ast.AST]) -> bool:
    if ann is None:
        return False
    if isinstance(ann, ast.Subscript):
        ann = ann.value
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        # string annotation: match on its head, e.g. "set[int]"
        head = ann.value.split("[", 1)[0].strip()
        return head.split(".")[-1] in _SET_ANNOTATION_TAILS
    name = dotted_name(ann)
    return name is not None and name.split(".")[-1] in _SET_ANNOTATION_TAILS


def _value_is_set_constructor(value: Optional[ast.AST]) -> bool:
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        return dotted_name(value.func) in ("set", "frozenset")
    return False


def _target_key(target: ast.AST) -> Optional[str]:
    if isinstance(target, ast.Name):
        return target.id
    if (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        return "self." + target.attr
    return None


class UnorderedIterRule(Rule):
    """Set iteration in event-ordering-sensitive packages."""

    rule_id = "unordered-iter"
    description = ("iterating a set in an ordering-sensitive module makes "
                   "event order depend on PYTHONHASHSEED; sort it or use "
                   "an insertion-ordered container")

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        if not sf.in_package(*DEFAULT_SENSITIVE_PACKAGES):
            return
        module_scope = self._scope_names(sf.tree.body)
        yield from self._walk(sf, sf.tree, [module_scope])

    # -- scope inference ---------------------------------------------------
    def _scope_names(self, body: Sequence[ast.stmt]) -> dict[str, bool]:
        """Names (and ``self.x`` keys) bound to set-typed values by the
        statements of one scope, nested suites included but nested
        def/class bodies excluded."""
        names: dict[str, bool] = {}

        def visit(stmts: Sequence[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(stmt, ast.Assign) and \
                        _value_is_set_constructor(stmt.value):
                    for tgt in stmt.targets:
                        key = _target_key(tgt)
                        if key:
                            names[key] = True
                elif isinstance(stmt, ast.AnnAssign):
                    key = _target_key(stmt.target)
                    if key and (_annotation_is_set(stmt.annotation)
                                or _value_is_set_constructor(stmt.value)):
                        names[key] = True
                for block in _block_fields(stmt):
                    visit(block)

        visit(body)
        return names

    def _class_self_names(self, cls: ast.ClassDef) -> dict[str, bool]:
        """``self.x`` set-typed attributes bound anywhere in the class's
        methods — so iterating ``self.x`` in *another* method is caught."""
        names: dict[str, bool] = {}
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for key, val in self._scope_names(stmt.body).items():
                    if key.startswith("self."):
                        names[key] = val
        return names

    # -- detection ---------------------------------------------------------
    def _is_setlike(self, expr: ast.AST, scopes: list[dict[str, bool]]) -> bool:
        if _value_is_set_constructor(expr):
            return True
        key = _target_key(expr)
        if key is None:
            return False
        return any(key in scope for scope in scopes)

    def _walk(self, sf: SourceFile, node: ast.AST,
              scopes: list[dict[str, bool]]) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._walk(
                    sf, child, scopes + [self._scope_names(child.body)])
                continue
            if isinstance(child, ast.ClassDef):
                yield from self._walk(
                    sf, child, scopes + [self._class_self_names(child)])
                continue
            if isinstance(child, ast.For) and \
                    self._is_setlike(child.iter, scopes):
                yield self._report(sf, child.iter)
            elif isinstance(child, (ast.ListComp, ast.SetComp, ast.DictComp,
                                    ast.GeneratorExp)):
                for gen in child.generators:
                    if self._is_setlike(gen.iter, scopes):
                        yield self._report(sf, gen.iter)
            elif isinstance(child, ast.Call):
                func = dotted_name(child.func)
                if (func in _ORDER_MATERIALISERS and child.args
                        and self._is_setlike(child.args[0], scopes)):
                    yield self._report(sf, child, via=func)
            yield from self._walk(sf, child, scopes)

    def _report(self, sf: SourceFile, node: ast.AST,
                via: Optional[str] = None) -> Finding:
        how = f"'{via}()' materialises" if via else "iteration materialises"
        return self.finding(
            sf, node,
            f"{how} set order in an event-ordering-sensitive module; "
            f"wrap in sorted() or keep an insertion-ordered list/dict")


# --------------------------------------------------------------------------
# rule 3: region access that bypasses the race auditor or the wait
# --------------------------------------------------------------------------

class RegionBypassRule(Rule):
    """Raw region-buffer writes outside the memory/verbs layers, and raw
    parks on region watchers outside the cluster/memory layers."""

    rule_id = "region-bypass"
    description = ("MemoryRegion storage may only be written through the "
                   "audited accessors; _store/_words are region-internal, "
                   "the remote_* landing API belongs to the verbs layer and "
                   "a watcher park to ctx.wait_local*")

    #: the accessor implementation itself.
    region_modules = ("repro.memory.region",)
    #: where remote ops legitimately land (the simulated NIC/verbs path).
    verbs_modules = ("repro.memory.region", "repro.rdma.network")
    #: where a watcher may be armed: ``ThreadContext.wait_local*``
    #: registers it in the dispatch of the failed read it guards, the
    #: region implements it.
    park_packages = ("repro.cluster", "repro.memory")

    _REMOTE_API = frozenset({
        "remote_read", "remote_write", "remote_rmw_read", "remote_rmw_commit",
    })

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        if not sf.in_package(*DEFAULT_SIM_PACKAGES):
            return
        in_region = sf.module in self.region_modules
        in_verbs = sf.module in self.verbs_modules
        may_park = sf.in_package(*self.park_packages)
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Attribute) and node.attr == "_words" \
                    and not in_region:
                yield self.finding(
                    sf, node,
                    "direct '._words' buffer access bypasses the "
                    "RaceAuditor; use read/write/cas/faa (or peek for "
                    "oracle reads)")
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr == "_store" and not in_region:
                    yield self.finding(
                        sf, node,
                        "'._store()' bypasses the RaceAuditor; use the "
                        "audited write/cas/faa accessors")
                elif attr in self._REMOTE_API and not in_verbs:
                    yield self.finding(
                        sf, node,
                        f"'.{attr}()' is the NIC landing API; issuing it "
                        f"outside repro.rdma.network fabricates remote "
                        f"traffic with no timing or audit window")
                elif attr in ("watch", "watch_any") and not may_park:
                    yield self.finding(
                        sf, node,
                        f"raw check-then-park: '.{attr}()' arms the watcher "
                        f"after the check that decided to sleep, so a write "
                        f"landing in between is lost; wait through "
                        f"ctx.wait_local*, which registers with the read")


# --------------------------------------------------------------------------
# rule 4: process-boundary discipline (the parallel engine's contract)
# --------------------------------------------------------------------------

#: the one module allowed to construct process pools: everything that
#: crosses a process boundary funnels through its audited chokepoint.
_SPAWN_CHOKEPOINTS = frozenset({"repro.parallel.engine"})

_POOL_IMPORTS = frozenset({"ProcessPoolExecutor", "multiprocessing"})

#: blob (de)serializers: no module of the sensitive packages may import
#: one.  Pickled bytes on disk are a process boundary stretched over
#: time; the sweep cache's store writes canonical JSON rows instead.
_SERIALIZATION_MODULES = frozenset({"pickle", "cPickle", "marshal", "shelve",
                                    "dill", "cloudpickle"})
_SERIALIZER_FINDING = (
    "blob (de)serialization in a sensitive package; cache entries are "
    "canonical-JSON rows written by repro.parallel.store, and nothing here "
    "may unpickle a file")


def _decorator_names(func: ast.AST) -> set[str]:
    names = set()
    for dec in getattr(func, "decorator_list", ()):  # bare name or attr
        name = dotted_name(dec)
        if name is not None:
            names.add(name.rsplit(".", 1)[-1])
    return names


class ProcessBoundaryRule(Rule):
    """Everything shipped to a worker process must be auditable.

    Four module-local checks inside the sensitive packages:

    * process pools (``ProcessPoolExecutor`` / ``multiprocessing``) may
      only be touched by the engine chokepoint module — sweep shards and
      experiment fan-outs all funnel through its single, audited
      submit loop (orphan-free shutdown, failed-chunk isolation);
    * blob (de)serializers (``pickle``/``marshal``/``shelve``/…) may
      not be imported at all — a serialized blob on disk is a process
      boundary stretched over time, and the one thing the sweep cache
      stores (``repro.parallel.store``) is a canonical-JSON row that is
      re-audited after every load;
    * a ``@worker_entry`` function must be defined at module top level:
      nested or method defs are not picklable by reference and would
      fail only at runtime, on the first parallel run;
    * ``<pool>.submit(fn, ...)`` where ``fn`` is defined in the same
      module requires ``fn`` to be marked ``@worker_entry`` — the marker
      is what `repro.parallel.cells.check_boundary_value` audits stick to.
    """

    rule_id = "process-boundary"
    description = ("process fan-out must go through repro.parallel.engine, "
                   "nothing may import a blob (de)serializer, "
                   "and worker entry points must be module-level functions "
                   "marked @worker_entry")

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        if not sf.in_package(*DEFAULT_SENSITIVE_PACKAGES):
            return
        at_chokepoint = sf.module in _SPAWN_CHOKEPOINTS
        marked: set[str] = set()
        unmarked_defs: set[str] = set()
        for node in sf.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if "worker_entry" in _decorator_names(node):
                    marked.add(node.name)
                else:
                    unmarked_defs.add(node.name)
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "multiprocessing" and not at_chokepoint:
                        yield self.finding(
                            sf, node,
                            "direct multiprocessing use outside the engine "
                            "chokepoint; spawn workers via "
                            "repro.parallel.engine so shutdown and "
                            "failed-chunk isolation stay centralized")
                    elif root in _SERIALIZATION_MODULES:
                        yield self.finding(sf, node, _SERIALIZER_FINDING)
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                pulled = {a.name for a in node.names}
                if not at_chokepoint and (
                        mod.split(".")[0] == "multiprocessing"
                        or pulled & _POOL_IMPORTS):
                    yield self.finding(
                        sf, node,
                        "process-pool import outside the engine chokepoint; "
                        "spawn workers via repro.parallel.engine so shutdown "
                        "and failed-chunk isolation stay centralized")
                elif mod.split(".")[0] in _SERIALIZATION_MODULES:
                    yield self.finding(sf, node, _SERIALIZER_FINDING)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if "worker_entry" in _decorator_names(node) and \
                        enclosing_function(node) is not None:
                    yield self.finding(
                        sf, node,
                        f"@worker_entry function '{node.name}' is nested; "
                        f"worker entry points must be module-level defs "
                        f"(picklable by reference) or the pool fails at "
                        f"runtime on the first parallel run")
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "submit" and node.args:
                first = node.args[0]
                if isinstance(first, ast.Name) and first.id in unmarked_defs \
                        and first.id not in marked:
                    yield self.finding(
                        sf, node,
                        f"'{first.id}' is submitted to a pool but not marked "
                        f"@worker_entry; the marker is the contract that its "
                        f"arguments/results pass check_boundary_value")


# --------------------------------------------------------------------------
# rule 5: scheduler internals stay inside the engine chokepoint
# --------------------------------------------------------------------------

#: the module that IS the event core.
_ENGINE_CHOKEPOINTS = frozenset({"repro.sim.core"})

#: stdlib priority-queue machinery.  Any use outside the engine is a
#: second scheduler.
_SCHEDULER_IMPORTS = frozenset({"heapq", "bisect"})


class EngineChokepointRule(Rule):
    """Scheduler internals are confined to the event core.

    Inside the sensitive packages ``heapq``/``bisect`` may only be
    imported by ``repro.sim.core`` — it owns event ordering, and a
    second priority queue over ``(time, seq)`` tuples elsewhere is a
    fork of the scheduler that the engine's order tests cannot see.
    """

    rule_id = "engine-chokepoint"
    description = ("heapq/bisect may only be imported by the event core, "
                   "repro.sim.core — a priority queue anywhere else in the "
                   "sensitive packages is a second scheduler")

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        if not sf.in_package(*DEFAULT_SENSITIVE_PACKAGES) \
                or sf.module in _ENGINE_CHOKEPOINTS:
            return
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in _SCHEDULER_IMPORTS:
                    yield self.finding(
                        sf, node,
                        f"'{name}' import outside the engine chokepoint; "
                        f"repro.sim.core owns event ordering — a second "
                        f"priority queue is a scheduler fork its order "
                        f"tests cannot see")


# --------------------------------------------------------------------------
# rule 6: events are reported raw (a dropped event costs a call, not a format)
# --------------------------------------------------------------------------

def _formats(node: ast.AST) -> bool:
    """Does evaluating ``node`` build a string?  f-string, ``"..." % x``,
    ``"...".format(...)`` or ``str(...)``."""
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        left = node.left
        return isinstance(left, ast.JoinedStr) or (
            isinstance(left, ast.Constant) and isinstance(left.value, str))
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute):
            return node.func.attr == "format"
        return isinstance(node.func, ast.Name) and node.func.id == "str"
    return False


class EmitFormatRule(Rule):
    """A formatted argument in an ``emit(...)`` call.

    Every protocol step is reported by one unconditional
    ``emit(actor, kind, *raw_fields)`` (see :mod:`repro.obs.log`); the
    log keeps or drops the event by its retention level and the views
    format on the read side.  Formatting at the call site is paid on
    every call, kept or not — at the default level most protocol-step
    events are dropped — so the fields must be the values themselves.
    """

    rule_id = "emit-format"
    description = ("arguments of an event-log emit(...) call must be raw "
                   "values — no f-string, %/.format or str(...): a dropped "
                   "event must cost a call, not a format (the views format "
                   "on the read side)")

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        if not sf.in_package(*DEFAULT_SIM_PACKAGES) or sf.in_package(OBS_PACKAGE):
            return
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or name.split(".")[-1] not in ("emit", "_emit"):
                continue
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                if _formats(arg):
                    yield self.finding(
                        sf, arg,
                        f"formatted argument in '{name}(...)': pass the raw "
                        f"values as fields — the event log formats nothing "
                        f"and drops what its level does not keep, so this "
                        f"string is built even when nobody will read it")


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

def default_rules() -> tuple[Rule, ...]:
    """The shipped per-file rule set, in stable registry order."""
    return (
        NondetSourceRule(),
        UnorderedIterRule(),
        RegionBypassRule(),
        ProcessBoundaryRule(),
        EngineChokepointRule(),
        EmitFormatRule(),
    )
