"""Content-addressed memoization of sweep rows.

``run_workload(spec)`` is a *pure function* of the sealed, seeded spec,
so a sweep row is fully determined by the spec's canonical form (seed
included), the metric reduced into the row, and the **source code**
that runs the cell.  Digesting those three into an address makes the
unchanged cell nearly free — the paper's asymmetric bet: optimize the
frequent case, pay full price only on the rare one.

The code fingerprint is one digest of every ``.py`` file under the
``repro`` package.  A cell runs far more than its lock — engine, NIC,
memory, cluster, lock table, observability, workload — so any source
edit invalidates every row: an over-broad miss costs a recompute, a
too-narrow one serves a stale row.  Lookups and write-back happen in
the parent; only the row is stored, as canonical JSON
(:class:`repro.parallel.store.BlobStore`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Optional

from repro.parallel.store import BlobStore
from repro.workload.spec import WorkloadSpec

#: Bump to invalidate every existing store entry when the digest scheme
#: or entry layout changes incompatibly.
CACHE_FORMAT = 1

#: The ``repro`` package directory: every source file a cell can run.
PACKAGE_ROOT = str(pathlib.Path(__file__).resolve().parent.parent)


def canonical_spec(spec: WorkloadSpec) -> dict:
    """The spec as a canonical primitives tree (dataclasses flattened,
    tuples listed).  This — not pickle — is what gets digested, so the
    address is stable across Python versions and pickle protocols."""
    return dataclasses.asdict(spec)


def source_fingerprint(root: str = PACKAGE_ROOT) -> str:
    """One digest over every ``.py`` file under ``root``: each file's
    path relative to ``root`` and the sha256 of its bytes, in path
    order."""
    base = pathlib.Path(root)
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(base).as_posix() for p in base.rglob("*.py")):
        digest.update(rel.encode("utf-8") + b"\0")
        digest.update(hashlib.sha256((base / rel).read_bytes()).digest())
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Counters for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    invalid: int = 0  # present but corrupt or malformed entries (= misses)


@dataclass
class ResultCache:
    """Content-addressed cache of sweep rows under ``cache_dir``.

    ``code`` is the source fingerprint the rows are keyed on (default:
    the running tree's).  Only *successful* rows are stored — a failed
    cell recomputes on the next sweep, which is what makes an
    interrupted or partially failing sweep resumable by re-running it.
    """

    cache_dir: str
    code: str = field(default_factory=source_fingerprint)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.store = BlobStore(self.cache_dir)

    def cell_digest(self, spec: WorkloadSpec, metric: str) -> str:
        payload = {
            "format": CACHE_FORMAT,
            "kind": "cell-row",
            "metric": metric,
            "spec": canonical_spec(spec),
            "code": self.code,
        }
        return hashlib.sha256(json.dumps(
            payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()

    def get(self, spec: WorkloadSpec, metric: str) -> Optional[dict]:
        """The stored row, or ``None``: anything less than a whole entry
        of this format holding a row object is a miss."""
        payload = self.store.get_json(self.cell_digest(spec, metric))
        row = None if payload is None else payload.get("row")
        if payload is not None and (payload.get("format") != CACHE_FORMAT
                                    or not isinstance(row, dict)):
            self.stats.invalid += 1
            row = None
        if row is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return row

    def put(self, spec: WorkloadSpec, metric: str, row: dict) -> None:
        self.store.put_json(self.cell_digest(spec, metric),
                            {"format": CACHE_FORMAT, "row": row})
        self.stats.writes += 1
