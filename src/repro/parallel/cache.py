"""Content-addressed memoization of sweep cells.

The cache exploits the repo's central invariant from the other side:
because ``run_workload(spec)`` is a *pure function* of the sealed,
seeded spec, a cell's result is fully determined by

1. the spec's canonical form (which includes the seed),
2. the metric reduced into the row, and
3. the **source code** that executes the cell.

Digesting those three into a content address makes the common path of
figure regeneration — the unchanged cell — nearly free, the same
asymmetric bet the ALock paper makes for lock acquisition: optimize the
overwhelmingly frequent case (local/unchanged) and pay full price only
on the rare one (remote/edited).

The code fingerprint is deliberately *scoped per lock kind*: it hashes
every source file of the shared execution core (``repro.sim``,
``repro.workload``, ``repro.faults``) plus the transitive
``repro.locks``-internal import closure of the module implementing the
cell's ``lock_kind``.  Editing ``baselines/spinlock.py`` therefore
invalidates spinlock cells and nothing else, while editing
``sim/core.py`` invalidates everything — exactly the staleness rule a
human would apply by hand.

Nothing in this module crosses a process boundary: lookups happen in the
parent before chunks are submitted, write-back happens in the parent as
results arrive, and loaded rows are re-audited with
:func:`~repro.parallel.cells.check_boundary_value` before they are
allowed to stand in for a worker's output.  Only the cell's *row* is
memoized, as canonical JSON (:class:`repro.parallel.store.BlobStore`):
nothing under ``src/repro`` unpickles a file (simlint ``process-boundary``).
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import importlib.util
import json
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import ConfigError
from repro.parallel.cells import CellResult, SweepCell, check_boundary_value
from repro.parallel.store import BlobStore
from repro.workload.spec import WorkloadSpec

#: Bump to invalidate every existing store entry when the digest scheme
#: or entry layout changes incompatibly.
CACHE_FORMAT = 1

#: Packages hashed into every cell's fingerprint: the shared execution
#: core every run flows through, regardless of lock kind.
SHARED_FINGERPRINT_PACKAGES: tuple[str, ...] = (
    "repro.sim",
    "repro.workload",
    "repro.faults",
)

#: The package whose modules are fingerprinted *per lock kind*.
LOCKS_PACKAGE = "repro.locks"

#: ``repro.locks`` modules every lock depends on (registry, layouts),
#: hashed into the shared part rather than any one kind's closure.
LOCKS_SHARED_MODULES: tuple[str, ...] = (
    "repro.locks",
    "repro.locks.base",
    "repro.locks.layout",
)


def canonical_spec(spec: WorkloadSpec) -> dict:
    """The spec as a canonical primitives tree (dataclasses flattened,
    tuples listed).  This — not pickle — is what gets digested, so the
    address is stable across Python versions and pickle protocols."""
    return dataclasses.asdict(spec)


def _canonical_json(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_reject_nonprimitive)


def _reject_nonprimitive(value: object) -> object:
    raise ConfigError(
        f"cannot canonicalize {type(value).__name__!r} into a cache "
        f"digest; specs must stay primitives + frozen dataclasses")


def _sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --------------------------------------------------------------------------
# code fingerprints
# --------------------------------------------------------------------------

def _module_file(module: str) -> Optional[str]:
    """Source path for ``module`` (package → its ``__init__.py``)."""
    try:
        spec = importlib.util.find_spec(module)
    except (ImportError, ValueError):
        return None
    if spec is None or spec.origin is None or not spec.origin.endswith(".py"):
        return None
    return spec.origin


def _is_package(module: str) -> bool:
    try:
        spec = importlib.util.find_spec(module)
    except (ImportError, ValueError):
        return False
    return spec is not None and spec.submodule_search_locations is not None


def _package_source_files(package: str) -> list[tuple[str, str]]:
    """``(dotted module name, path)`` for every ``.py`` under
    ``package``, in sorted order (``__init__.py`` → the package name)."""
    init = _module_file(package)
    if init is None:
        return []
    root = os.path.dirname(init)
    out: list[tuple[str, str]] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        rel_dir = os.path.relpath(dirpath, root)
        prefix = package if rel_dir == "." else \
            f"{package}.{rel_dir.replace(os.sep, '.')}"
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            module = prefix if name == "__init__.py" else \
                f"{prefix}.{name[:-3]}"
            out.append((module, os.path.join(dirpath, name)))
    return out


class SourceFingerprinter:
    """Hashes the source files a cell's execution depends on.

    ``overlay`` maps module names to replacement source bytes; tests use
    it to model "this file was edited" without touching the tree.  The
    per-kind closure walk is pure AST analysis — it never imports or
    executes anything beyond what :data:`repro.locks.LOCK_TYPES` already
    loaded to register the factories.
    """

    def __init__(self, overlay: Optional[dict] = None) -> None:
        self.overlay = dict(overlay or {})
        self._per_kind: dict[str, str] = {}
        self._shared: Optional[str] = None

    # -- file hashing -----------------------------------------------------
    def _hash_source(self, module_name: str, path: str) -> str:
        data = self.overlay.get(module_name)
        if data is None:
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError:
                data = b"<unreadable>"
        if isinstance(data, str):
            data = data.encode("utf-8")
        return _sha256_hex(data)

    # -- import closure over repro.locks ----------------------------------
    def _locks_imports(self, module: str, path: str) -> list[str]:
        """``repro.locks``-internal modules ``module`` imports, resolved
        (including relative imports), in first-seen order."""
        try:
            source = self.overlay.get(module)
            if source is None:
                with open(path, "rb") as fh:
                    source = fh.read()
            tree = ast.parse(source)
        except (OSError, SyntaxError, ValueError):
            return []
        package = module if _is_package(module) else module.rpartition(".")[0]
        found: list[str] = []

        def _add(name: Optional[str]) -> None:
            if name and name.startswith(LOCKS_PACKAGE) and name not in found:
                found.append(name)

        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    _add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    try:
                        base = importlib.util.resolve_name(
                            "." * node.level + base, package)
                    except (ImportError, ValueError):
                        continue
                _add(base)
                for alias in node.names:
                    # ``from repro.locks.alock import alock`` pulls a
                    # submodule; include it when it resolves to a file.
                    sub = f"{base}.{alias.name}"
                    if sub.startswith(LOCKS_PACKAGE) and \
                            _module_file(sub) is not None:
                        _add(sub)
        return found

    def _lock_closure(self, root_module: str) -> list[tuple[str, str]]:
        """Transitive ``repro.locks``-internal closure of ``root_module``
        as sorted ``(module, path)`` pairs."""
        seen: dict[str, str] = {}
        stack = [root_module]
        while stack:
            module = stack.pop()
            if module in seen:
                continue
            path = _module_file(module)
            if path is None:
                continue
            seen[module] = path
            for dep in self._locks_imports(module, path):
                if dep not in seen:
                    stack.append(dep)
        for shared in LOCKS_SHARED_MODULES:
            # Shared infra is hashed for every kind anyway; keep it out
            # of the per-kind closure so its membership is uniform.
            seen.pop(shared, None)
        return sorted(seen.items())

    def _resolve_lock_module(self, lock_kind: str) -> Optional[str]:
        from repro.locks.base import LOCK_TYPES

        factory = LOCK_TYPES.get(lock_kind)
        if factory is None:
            return None
        return getattr(factory, "__module__", None)

    # -- public API -------------------------------------------------------
    def shared_fingerprint(self) -> str:
        """Digest of the execution core every cell runs on."""
        if self._shared is None:
            parts: list[tuple[str, str]] = []
            for package in SHARED_FINGERPRINT_PACKAGES:
                for name, path in _package_source_files(package):
                    parts.append((name, self._hash_source(name, path)))
            for module in LOCKS_SHARED_MODULES:
                path = _module_file(module)
                if path is not None:
                    parts.append((module, self._hash_source(module, path)))
            self._shared = _sha256_hex(
                _canonical_json(sorted(parts)).encode("utf-8"))
        return self._shared

    def fingerprint(self, lock_kind: str) -> str:
        """Digest of everything ``lock_kind`` cells execute: the shared
        core plus the kind's own module closure.  An unregistered kind
        (a cell that will fail in the worker) falls back to hashing the
        whole locks package — safe, merely over-broad."""
        cached = self._per_kind.get(lock_kind)
        if cached is not None:
            return cached
        module = self._resolve_lock_module(lock_kind)
        if module is not None:
            closure = self._lock_closure(module)
        else:
            closure = [(name, path)
                       for name, path in _package_source_files(LOCKS_PACKAGE)]
        parts = [(name, self._hash_source(name, path))
                 for name, path in closure]
        digest = _sha256_hex(_canonical_json(
            {"shared": self.shared_fingerprint(),
             "lock": sorted(parts)}).encode("utf-8"))
        self._per_kind[lock_kind] = digest
        return digest


# --------------------------------------------------------------------------
# the result cache
# --------------------------------------------------------------------------

@dataclass
class CacheStats:
    """Counters for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    invalid: int = 0  # present but corrupt/failed-audit entries (= misses)

    def snapshot(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "invalid": self.invalid}


@dataclass
class ResultCache:
    """Content-addressed cache of sweep-cell rows.

    Only *successful* results are stored: a failed cell recomputes on
    the next sweep, which is what makes an interrupted or partially
    failing sweep resumable by simply re-running it.
    """

    cache_dir: str
    store: BlobStore = field(default=None)  # type: ignore[assignment]
    fingerprinter: SourceFingerprinter = field(default=None)  # type: ignore[assignment]
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.store is None:
            self.store = BlobStore(self.cache_dir)
        if self.fingerprinter is None:
            self.fingerprinter = SourceFingerprinter()

    # -- digests ----------------------------------------------------------
    def cell_digest(self, spec: WorkloadSpec, metric: str) -> str:
        payload = {
            "format": CACHE_FORMAT,
            "kind": "cell-row",
            "metric": metric,
            "spec": canonical_spec(spec),
            "code": self.fingerprinter.fingerprint(spec.lock_kind),
        }
        return _sha256_hex(_canonical_json(payload).encode("utf-8"))

    # -- cell rows (run_cells / sweep path) -------------------------------
    def lookup_cell(self, cell: SweepCell, metric: str) -> Optional[CellResult]:
        """A hit returns a :class:`CellResult` indistinguishable from a
        fresh worker's; anything less than a fully valid entry is a
        miss."""
        digest = self.cell_digest(cell.spec, metric)
        payload = self.store.get_json(digest)
        if payload is None:
            self.stats.misses += 1
            return None
        row = payload.get("row")
        if payload.get("format") != CACHE_FORMAT or not isinstance(row, dict):
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        try:
            check_boundary_value(row, "cache row")
            result = CellResult(key=cell.key, ok=True, row=row)
        except ConfigError:
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def store_cell(self, cell: SweepCell, metric: str,
                   result: CellResult) -> None:
        if not result.ok or result.row is None:
            return  # failures are retried, never memoized
        self.store.put_json(self.cell_digest(cell.spec, metric),
                            {"format": CACHE_FORMAT, "row": result.row})
        self.stats.writes += 1
