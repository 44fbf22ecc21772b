"""Cells: the unit of work the parallel engine ships to workers.

A *cell* is one sealed, seeded simulation run — ``Cell(coords, spec)``:
where its numbers go and the :class:`WorkloadSpec` that produces them.
A run is deterministic given its spec, so a cell can execute in any
process, in any order (docs/architecture.md § Parallel experiments).

The process boundary is narrow: a worker *receives* specs — frozen
dataclasses of primitives — and *returns*, per spec, the picklable
:class:`~repro.workload.metrics.RunResult` or a :class:`CellFailure` of
strings; no Environment, cluster or lock ever crosses it.  The
:func:`worker_entry` marker plus simlint's ``process-boundary`` rule
keep it that way.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, NamedTuple, Optional, TypeVar

from repro.common.errors import ConfigError
from repro.workload.spec import WorkloadSpec

_F = TypeVar("_F", bound=Callable)

#: Types allowed to cross the process boundary (recursively, through
#: tuples/dicts/dataclasses).  Used by :func:`check_boundary_value` and
#: the tests/parallel boundary audit.
_PRIMITIVES = (bool, int, float, str, bytes, type(None))


def worker_entry(fn: _F) -> _F:
    """Mark ``fn`` as a process-pool entry point.

    The marker is a no-op at runtime; it exists so simlint's
    ``process-boundary`` rule (and human readers) can find every
    function whose arguments cross a process boundary and check that
    those arguments are annotated as cell specs / primitives only.
    """
    fn.__is_worker_entry__ = True
    return fn


def check_boundary_value(value, path: str = "cell") -> None:
    """Raise :class:`ConfigError` if ``value`` contains anything beyond
    primitives, tuples/lists/dicts of primitives, or frozen dataclasses
    thereof.  This is the runtime side of the process-boundary
    contract; the sweep grid audits every cell as it enumerates it."""
    if isinstance(value, _PRIMITIVES):
        return
    if isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            check_boundary_value(item, f"{path}[{i}]")
        return
    if isinstance(value, dict):
        for k, v in value.items():
            check_boundary_value(k, f"{path} key {k!r}")
            check_boundary_value(v, f"{path}[{k!r}]")
        return
    if is_dataclass(value) and not isinstance(value, type):
        for f in fields(value):
            check_boundary_value(getattr(value, f.name), f"{path}.{f.name}")
        return
    raise ConfigError(
        f"{path}: {type(value).__name__!r} may not cross the process "
        f"boundary — cells must be primitive-keyed specs (no live "
        f"Environment/Cluster/lock objects)")


class Cell(NamedTuple):
    """One sealed run of a grid: where its numbers go (the row's
    coordinates, in the shape the grid's reader wants — a sweep's are
    its ``(axis, value)`` pairs) and the spec that produces them."""

    coords: Any
    spec: WorkloadSpec


@dataclass(frozen=True)
class CellFailure:
    """What a cell that raised sends home instead of its result:
    ``error`` is the ``repr`` + traceback text and ``dump`` the
    post-mortem (:mod:`repro.obs.postmortem`) the failure site hung on
    the exception, as canonical JSON — strings both, so the blob
    survives pickling unchanged."""

    error: str
    dump: Optional[str] = None
