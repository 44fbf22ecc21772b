"""Parallel parameter sweeps with deterministic, byte-identical output.

Enumerate a (seed × config) grid into sealed :class:`Cell` values, run
their specs through :func:`repro.parallel.engine.pmap_outcomes`, reduce
each :class:`RunResult` to a metric row here in the parent, and
serialize.  The JSON/CSV is **byte-identical at any worker count**
(tests/parallel/test_determinism.py): enumeration order is output
order, each cell is a sealed seeded run, and outcomes come back by
input position, never completion order.  How the sweep ran (workers,
elapsed time, cache counters) stays out of the serialized payload.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

from repro.common.errors import ConfigError
from repro.locks.base import LOCK_TYPES, unknown_lock_type
from repro.parallel.cache import ResultCache
from repro.parallel.cells import Cell, CellFailure, check_boundary_value
from repro.parallel.engine import METRICS, pmap_outcomes
from repro.workload.spec import WorkloadSpec

#: A sweep cell's result: its metric row, or how it failed.
RowOrFailure = Union[dict, CellFailure]


def enumerate_grid(base: WorkloadSpec, axes: "dict[str, Sequence]",
                   seeds: Optional[Sequence[int]] = None) -> list[Cell]:
    """Enumerate the cartesian (seed × config) grid into sealed cells
    whose coordinates are their ``(axis, value)`` pairs, in
    ``itertools.product`` order over the axes as given — the canonical
    output order.  ``seeds``, when given, is the outermost axis
    (``"seed"``).  Every cell passes :func:`check_boundary_value` here,
    not in a worker.
    """
    if seeds is not None and "seed" in axes:
        raise ConfigError(
            "the 'seed' axis is reserved when seeds= is given; pass the "
            "seed values through seeds= (outermost axis) or as an "
            "explicit axis, not both")
    all_axes: dict[str, Sequence] = {}
    if seeds is not None:
        all_axes["seed"] = list(seeds)
    all_axes.update(axes)
    names = tuple(all_axes)
    cells: list[Cell] = []
    for combo in itertools.product(*(all_axes[n] for n in names)):
        coords = tuple(zip(names, combo))
        cell = Cell(coords, base.with_(**dict(coords)))
        check_boundary_value(cell)
        cells.append(cell)
    return cells


@dataclass
class ParallelSweepResult:
    """Merged outcome of a (possibly parallel) sweep: ``results[i]`` is
    ``cells[i]``'s metric row or its :class:`CellFailure`, in
    enumeration order.  ``workers``, ``elapsed_s`` and the cache
    counters say how the sweep *ran* and are never serialized — a cached
    row and a computed row are the same row."""

    axes: tuple[str, ...]
    cells: list[Cell] = field(default_factory=list)
    results: list[RowOrFailure] = field(default_factory=list)
    metric: str = "throughput"
    workers: int = 1
    elapsed_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def rows(self) -> list[dict]:
        """Rows of successful cells, in enumeration order."""
        return [r for r in self.results if not isinstance(r, CellFailure)]

    @property
    def failures(self) -> list[tuple[Cell, CellFailure]]:
        return [(c, r) for c, r in zip(self.cells, self.results)
                if isinstance(r, CellFailure)]

    def _entries(self) -> Iterator[tuple[int, Cell, Optional[dict], Optional[str]]]:
        """``(index, cell, row, error)`` per cell; one of the last two is
        ``None``."""
        for index, (cell, r) in enumerate(zip(self.cells, self.results)):
            if isinstance(r, CellFailure):
                yield index, cell, None, r.error
            else:
                yield index, cell, r, None

    # -- serialization (deterministic; byte-identity gated by tests) -----
    def to_json_bytes(self) -> bytes:
        """Canonical JSON: sorted keys, fixed separators, ``\\n``-ended."""
        payload = {
            "axes": list(self.axes),
            "metric": self.metric,
            "cells": [{"key": list(cell.coords), "index": index,
                       "ok": error is None, "row": row, "error": error}
                      for index, cell, row, error in self._entries()],
        }
        return (json.dumps(payload, sort_keys=True, indent=2,
                           ensure_ascii=True) + "\n").encode("ascii")

    def _columns(self) -> list[str]:
        row_keys: set[str] = set()
        for row in self.rows:
            row_keys.update(row)
        extra = sorted(row_keys - set(self.axes))
        return ["index", *self.axes, *extra, "ok", "error"]

    def to_csv_bytes(self) -> bytes:
        """Canonical CSV: one line per cell, columns index, axes, sorted
        row fields, ok, error; ``\\n`` line endings on every platform."""
        columns = self._columns()
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for index, cell, row, error in self._entries():
            line = {"index": index, "ok": error is None, "error": error or ""}
            line.update(cell.coords)
            line.update({k: v for k, v in (row or {}).items() if k in columns})
            writer.writerow(line)
        return buf.getvalue().encode("utf-8")

    def write(self, json_path: Optional[str] = None,
              csv_path: Optional[str] = None) -> None:
        if json_path:
            with open(json_path, "wb") as fh:
                fh.write(self.to_json_bytes())
        if csv_path:
            with open(csv_path, "wb") as fh:
                fh.write(self.to_csv_bytes())


def run_sweep_parallel(base: WorkloadSpec, axes: "dict[str, Sequence]", *,
                       seeds: Optional[Sequence[int]] = None,
                       workers: int = 0, metric: str = "throughput",
                       chunk_size: Optional[int] = None,
                       on_result: Optional[Callable[[Cell, RowOrFailure], None]] = None,
                       executor_factory=None,
                       cache: Optional[ResultCache] = None) -> ParallelSweepResult:
    """Run a (seed × config) grid sweep on ``workers`` processes
    (``<= 1``: inline) and return the merged result, byte-identical at
    any worker count.  An unknown metric or lock kind is a
    :class:`ConfigError` before any cell runs.

    ``on_result(cell, row_or_failure)`` reports progress in completion
    order (cache hits first).  A ``cache`` is looked up for every cell
    before anything is submitted — an all-hit sweep builds no pool — and
    a fresh row is written back before ``on_result`` sees it, so
    re-running an interrupted sweep with the same cache recomputes only
    the missing cells.  The serialized bytes are the same either way.
    """
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}; choose from {sorted(METRICS)}")
    cells = enumerate_grid(base, axes, seeds)
    for cell in cells:
        if cell.spec.lock_kind not in LOCK_TYPES:
            raise unknown_lock_type(cell.spec.lock_kind)
    start = time.perf_counter()  # simlint: ignore[nondet-source]
    results: list = [None] * len(cells)

    def record(i: int, result: RowOrFailure) -> None:
        results[i] = result
        if on_result is not None:
            on_result(cells[i], result)

    if cache is not None:
        for i, cell in enumerate(cells):
            row = cache.get(cell.spec, metric)
            if row is not None:
                record(i, row)
    todo = [i for i, r in enumerate(results) if r is None]

    def on_outcome(j: int, outcome) -> None:
        i = todo[j]
        if not isinstance(outcome, CellFailure):
            row = outcome.summary_row()
            row["metric"] = float(METRICS[metric](outcome))
            if cache is not None:
                cache.put(cells[i].spec, metric, row)
            outcome = row
        record(i, outcome)

    pmap_outcomes([cells[i].spec for i in todo], workers=workers,
                  chunk_size=chunk_size, executor_factory=executor_factory,
                  on_result=on_outcome)
    elapsed = time.perf_counter() - start  # simlint: ignore[nondet-source]
    return ParallelSweepResult(
        axes=tuple(name for name, _ in cells[0].coords) if cells else (),
        cells=cells, results=results, metric=metric,
        workers=max(1, workers), elapsed_s=elapsed,
        cache_hits=len(cells) - len(todo) if cache is not None else 0,
        cache_misses=len(todo) if cache is not None else 0)
