"""Parallel parameter sweeps with deterministic, byte-identical output.

This is the user-facing layer of the parallel engine: enumerate a
(seed × config) grid into sealed :class:`SweepCell` values, fan them out
with :func:`repro.parallel.engine.run_cells`, and serialize the merged
result.  The serialized JSON/CSV is **byte-identical at any worker
count** (gated by tests/parallel/test_determinism.py) because

1. cells are enumerated in a fixed order and keyed by that order,
2. each cell is a sealed seeded run — its row does not depend on which
   process computed it, and
3. the merge sorts by cell key before serializing, discarding
   completion order.

Wall-clock metadata (worker count, elapsed time) is intentionally kept
*out* of the serialized payload so identical sweeps produce identical
bytes regardless of hardware.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.common.errors import ConfigError
from repro.parallel.cache import ResultCache
from repro.parallel.cells import CellResult, SweepCell, cell_key
from repro.parallel.engine import run_cells
from repro.workload.spec import WorkloadSpec


def enumerate_grid(base: WorkloadSpec, axes: "dict[str, Sequence]",
                   seeds: Optional[Sequence[int]] = None) -> list[SweepCell]:
    """Enumerate the cartesian (seed × config) grid into sealed cells.

    ``seeds``, when given, becomes the outermost axis (named ``"seed"``),
    so repetitions of the whole grid are contiguous.  Enumeration order
    — ``itertools.product`` over axes in the given order — defines the
    cell index, which is the first element of every cell key and hence
    the canonical (serial) output order.
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
    cells: list[SweepCell] = []
    for index, combo in enumerate(itertools.product(*(all_axes[n] for n in names))):
        overrides = dict(zip(names, combo))
        cells.append(SweepCell(index=index, key=cell_key(index, overrides),
                               spec=base.with_(**overrides)))
    return cells


@dataclass
class ParallelSweepResult:
    """Merged outcome of a (possibly parallel) sweep.

    ``results`` is in cell-key order — i.e. exactly the order a serial
    sweep would have produced.  ``workers``, ``elapsed_s``, and the
    cache counters describe how the sweep *ran* and are excluded from
    serialization — a cached row and a computed row are the same row.
    """

    axes: tuple[str, ...]
    results: list[CellResult] = field(default_factory=list)
    metric: str = "throughput"
    workers: int = 1
    elapsed_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def rows(self) -> list[dict]:
        """Rows of successful cells, in cell-key order."""
        return [r.row for r in self.results if r.ok]

    @property
    def failures(self) -> list[CellResult]:
        return [r for r in self.results if not r.ok]

    def _axis_values(self, result: CellResult) -> dict:
        return dict(result.key[1:])

    # -- serialization (deterministic; byte-identity gated by tests) -----
    def to_json_bytes(self) -> bytes:
        """Canonical JSON: sorted keys, fixed separators, ``\\n``-ended.
        Contains only run-content (axes, metric, per-cell rows/errors),
        never how the sweep was executed."""
        payload = {
            "axes": list(self.axes),
            "metric": self.metric,
            "cells": [
                {
                    "key": list(r.key[1:]),
                    "index": r.key[0],
                    "ok": r.ok,
                    "row": r.row,
                    "error": r.error,
                }
                for r in self.results
            ],
        }
        return (json.dumps(payload, sort_keys=True, indent=2,
                           ensure_ascii=True) + "\n").encode("ascii")

    def _columns(self) -> list[str]:
        row_keys: set[str] = set()
        for r in self.results:
            if r.row:
                row_keys.update(r.row)
        extra = sorted(row_keys - set(self.axes))
        return ["index", *self.axes, *extra, "ok", "error"]

    def to_csv_bytes(self) -> bytes:
        """Canonical CSV: one line per cell in key order, fixed column
        order (index, axes, sorted row fields, ok, error), ``\\n`` line
        endings on every platform."""
        columns = self._columns()
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for r in self.results:
            line = {"index": r.key[0], "ok": r.ok, "error": r.error or ""}
            line.update(self._axis_values(r))
            if r.row:
                line.update({k: v for k, v in r.row.items() if k in columns})
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
                       on_result: Optional[Callable[[CellResult], None]] = None,
                       executor_factory=None,
                       cache: Optional[ResultCache] = None) -> ParallelSweepResult:
    """Run a (seed × config) grid sweep, sharded over ``workers``
    processes, and return the deterministically merged result.

    ``workers <= 1`` runs inline in this process — the serial reference
    path; any ``workers`` value yields byte-identical
    :meth:`ParallelSweepResult.to_json_bytes` /
    :meth:`~ParallelSweepResult.to_csv_bytes` output.  A ``cache``
    short-circuits cells whose content address is already in the store
    (and write-backs fresh ones), which is also the resume path: re-run
    an interrupted sweep with the same cache and only missing cells
    recompute.  The serialized bytes are identical with or without it.
    """
    cells = enumerate_grid(base, axes, seeds)
    hits0 = cache.stats.hits if cache is not None else 0
    misses0 = cache.stats.misses if cache is not None else 0
    start = time.perf_counter()  # simlint: ignore[nondet-source]
    results = run_cells(cells, workers=workers, metric=metric,
                        chunk_size=chunk_size, on_result=on_result,
                        executor_factory=executor_factory, cache=cache)
    elapsed = time.perf_counter() - start  # simlint: ignore[nondet-source]
    axis_names = cells[0].key[1:] if cells else ()
    return ParallelSweepResult(
        axes=tuple(name for name, _ in axis_names),
        results=results, metric=metric,
        workers=max(1, workers), elapsed_s=elapsed,
        cache_hits=(cache.stats.hits - hits0) if cache is not None else 0,
        cache_misses=(cache.stats.misses - misses0) if cache is not None else 0)
