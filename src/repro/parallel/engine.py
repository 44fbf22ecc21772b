"""The process-pool experiment engine.

Shards sweep cells across worker processes and merges their results
deterministically.  The engine exploits the repo's central invariant:
every run is a *sealed seeded cell* — ``run_workload(spec)`` is a pure
function of the spec — so replication across processes cannot change
any result, only the wall-clock time to produce it.

Scheduling is **chunked work-stealing**: cells are split into small
contiguous chunks, every chunk is submitted up front, and the pool's
workers pull the next chunk the moment they finish one.  Heterogeneous
cells (a 20-node × 12-thread cell takes ~50× a 3-node smoke cell) thus
load-balance without any cost model.

Failure containment is per cell: a worker exception is caught *inside*
the worker and returned as a failed :class:`CellResult` (repr +
traceback), so one diverging cell never loses a sweep.  A chunk lost to
a worker crash (pool broken, unpicklable result) is recorded the same
way for every cell in the chunk, and a *malformed* chunk — a worker
returning the wrong shape, or rows for the wrong cells — is validated
against the submitted chunk and recorded cell by cell, never allowed to
abort the sweep late with a generic error.

Chunks execute in one place, :func:`run_chunks`: in this process, in
submission order, when ``workers <= 1`` (the serial reference path —
the same worker functions, no pool at all, which is what makes the
byte-identity comparison against pooled runs meaningful), on a local
process pool otherwise.  This module is the repo's only pool
chokepoint (simlint ``process-boundary``).

``KeyboardInterrupt`` (or any error) in the parent cancels all pending
chunks and shuts the pool down *waiting* for workers to exit, so an
aborted sweep leaves no orphan processes behind.
"""

from __future__ import annotations

import traceback
from concurrent.futures import FIRST_COMPLETED, Executor, ProcessPoolExecutor, wait
from typing import Callable, Optional, Sequence

from repro.common.errors import ConfigError, SimulationError
from repro.parallel.cache import ResultCache
from repro.parallel.cells import CellResult, SweepCell, worker_entry
from repro.workload.metrics import RunResult
from repro.workload.runner import run_workload
from repro.workload.spec import WorkloadSpec

#: Named metrics a cell row records under ``"metric"``.  Referenced by
#: name so the choice crosses the process boundary as a string, never a
#: callable.
METRICS: dict[str, Callable[[RunResult], float]] = {
    "throughput": lambda r: r.throughput_ops_per_sec,
    "p50": lambda r: r.latency.p50,
    "p99": lambda r: r.latency.p99,
    "p999": lambda r: r.latency.p999,
    "mean_latency": lambda r: r.latency.mean,
}


def _cell_row(result: RunResult, metric: str) -> dict:
    """The primitive row a cell contributes to the merged output."""
    row = result.summary_row()
    row["metric"] = float(METRICS[metric](result))
    return row


@worker_entry
def run_cell_chunk(chunk: "tuple[SweepCell, ...]", metric: str = "throughput") -> list[CellResult]:
    """Worker entry point: execute one chunk of sealed cells.

    Receives only :class:`SweepCell` values (primitive-keyed specs) and
    a metric *name*; builds each cell's whole world — cluster, locks,
    workload — inside this process.  Exceptions become failed-cell
    records; they never escape the chunk.
    """
    out: list[CellResult] = []
    for cell in chunk:
        try:
            result = run_workload(cell.spec)
            out.append(CellResult(key=cell.key, ok=True,
                                  row=_cell_row(result, metric)))
        except Exception as exc:
            # A failure site (runner, sim core, locktable) may have hung
            # a post-mortem dump on the exception; a failed cell carries
            # it home as a plain string (boundary-safe).
            out.append(CellResult(
                key=cell.key, ok=False,
                error=f"{exc!r}\n{traceback.format_exc()}",
                dump=getattr(exc, "_postmortem", None)))
    return out


@worker_entry
def run_spec_chunk(chunk: "tuple[WorkloadSpec, ...]") -> list[RunResult]:
    """Worker entry point for the experiment fan-out
    (:func:`pmap_workloads`): execute a chunk of specs and return the
    full (picklable) :class:`RunResult` values.  Exceptions propagate —
    an experiment run is not allowed to silently drop a cell."""
    return [run_workload(spec) for spec in chunk]


def default_chunk_size(n_items: int, workers: int) -> int:
    """Small chunks for work-stealing, large enough to amortize IPC:
    aim for ~4 chunks per worker, capped at 8 cells per chunk."""
    if n_items <= 0:
        return 1
    return max(1, min(8, -(-n_items // (max(1, workers) * 4))))


def _chunks(items: Sequence, size: int) -> list[tuple]:
    return [tuple(items[i:i + size]) for i in range(0, len(items), size)]


def run_chunks(chunks: "list[tuple]", submit_fn,
               on_chunk_done: Callable[[int, object, Optional[BaseException]], None],
               *, workers: int,
               executor_factory: Optional[Callable[[int], Executor]] = None) -> None:
    """Execute ``chunks`` and report ``(chunk_index, value, error)`` to
    ``on_chunk_done`` in completion order.  ``submit_fn(chunk)`` names
    the worker entry and its primitive arguments (the sealed-cell
    boundary).  The pool, when there is one, is fully torn down —
    workers joined — before this returns or raises.

    ``workers <= 1`` without an ``executor_factory`` (the test seam,
    ``workers -> Executor``) runs the chunks inline; anything else is
    chunked work-stealing on a process pool."""
    if workers <= 1 and executor_factory is None:
        for idx, chunk in enumerate(chunks):
            fn, *args = submit_fn(chunk)
            try:
                value, error = fn(*args), None
            except Exception as exc:
                value, error = None, exc
            on_chunk_done(idx, value, error)
        return
    workers = max(1, workers)
    if executor_factory is not None:
        executor = executor_factory(workers)
    else:
        executor = ProcessPoolExecutor(max_workers=workers)
    try:
        pending = {executor.submit(*submit_fn(chunk)): i
                   for i, chunk in enumerate(chunks)}
        while pending:
            done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
            for fut in done:
                idx = pending.pop(fut)
                error = fut.exception()
                value = None if error is not None else fut.result()
                on_chunk_done(idx, value, error)
    except BaseException:
        # Interrupt/crash in the parent: drop what hasn't started and
        # wait for in-flight workers so no orphan processes survive.
        executor.shutdown(wait=True, cancel_futures=True)
        raise
    executor.shutdown(wait=True)


def _validated_chunk_results(chunk: "tuple[SweepCell, ...]", idx: int,
                             value: object,
                             error: Optional[BaseException]) -> list[CellResult]:
    """Reconcile whatever came back for ``chunk`` against what was
    submitted, one :class:`CellResult` per submitted cell.

    A crashed chunk fails every cell; a malformed chunk — wrong type,
    foreign/duplicate keys, missing cells — fails exactly the cells the
    worker did not properly answer for.  The sweep never aborts late
    over a worker's bad return value.
    """
    if error is not None:
        # The whole chunk died (worker crash / broken pool): record
        # every cell of the chunk as failed, keep the sweep going.
        return [CellResult(key=cell.key, ok=False,
                           error=f"chunk failure: {error!r}")
                for cell in chunk]
    returned = value if isinstance(value, (list, tuple)) else None
    by_key: dict[tuple, CellResult] = {}
    anomalies: list[str] = []
    if returned is None:
        anomalies.append(f"returned {type(value).__name__!r}, "
                         f"expected a list of CellResult")
    else:
        for item in returned:
            if not isinstance(item, CellResult):
                anomalies.append(f"non-CellResult entry {type(item).__name__!r}")
            elif item.key in by_key:
                anomalies.append(f"duplicate key {item.key!r}")
            else:
                by_key[item.key] = item
    expected = {cell.key: cell for cell in chunk}
    for key in list(by_key):
        if key not in expected:
            anomalies.append(f"foreign key {key!r}")
            del by_key[key]
    out: list[CellResult] = []
    for cell in chunk:
        res = by_key.get(cell.key)
        if res is None:
            detail = "; ".join(anomalies) or "cell missing from returned chunk"
            res = CellResult(key=cell.key, ok=False,
                             error=f"malformed chunk {idx}: worker returned "
                                   f"no result for this cell ({detail})")
        out.append(res)
    return out


def run_cells(cells: Sequence[SweepCell], *, workers: int = 0,
              metric: str = "throughput", chunk_size: Optional[int] = None,
              on_result: Optional[Callable[[CellResult], None]] = None,
              executor_factory: Optional[Callable[[int], Executor]] = None,
              cache: Optional[ResultCache] = None) -> list[CellResult]:
    """Execute ``cells`` and return their results **in cell-key order**
    (= enumeration order), regardless of worker count or completion
    order — the deterministic-merge guarantee.

    Args:
        cells: sealed cells (see :func:`repro.parallel.sweep.enumerate_grid`).
        workers: ``<= 1`` runs inline (the serial path, no pool at all);
            ``N > 1`` shards over N processes.
        metric: named metric recorded in each row (see :data:`METRICS`).
        chunk_size: cells per work-stealing chunk; default
            :func:`default_chunk_size`.
        on_result: progress callback, invoked in **completion** order
            (not merge order) with each :class:`CellResult`; cache hits
            are reported first, in enumeration order.
        executor_factory: test seam; ``workers -> Executor``.
        cache: optional :class:`~repro.parallel.cache.ResultCache` —
            hits skip submission entirely, fresh successful results are
            written back as they arrive, so an interrupted sweep resumes
            from whatever the store already holds.
    """
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}; choose from {sorted(METRICS)}")
    cells = list(cells)
    merged: dict[tuple, CellResult] = {}
    if cache is not None:
        for cell in cells:
            hit = cache.lookup_cell(cell, metric)
            if hit is not None:
                merged[cell.key] = hit
                if on_result is not None:
                    on_result(hit)
    misses = [cell for cell in cells if cell.key not in merged]

    size = chunk_size if chunk_size else default_chunk_size(len(misses), workers)
    chunks = _chunks(misses, size)

    def on_chunk_done(idx: int, value, error: Optional[BaseException]) -> None:
        for res in _validated_chunk_results(chunks[idx], idx, value, error):
            if cache is not None:
                # Write-back precedes the progress callback so a cell is
                # durably resumable by the time the operator sees it.
                cache.store_cell(_cell_of(chunks[idx], res.key), metric, res)
            merged[res.key] = res
            if on_result is not None:
                on_result(res)

    def _cell_of(chunk: "tuple[SweepCell, ...]", key: tuple) -> SweepCell:
        for cell in chunk:
            if cell.key == key:
                return cell
        raise SimulationError(f"no submitted cell with key {key!r}")  # pragma: no cover

    if chunks:
        run_chunks(chunks, lambda chunk: (run_cell_chunk, chunk, metric),
                   on_chunk_done, workers=workers,
                   executor_factory=executor_factory)
    missing = [cell.key for cell in cells if cell.key not in merged]
    if missing:  # pragma: no cover - defensive
        raise SimulationError(f"sweep lost cells {missing[:3]}...")
    return [merged[cell.key] for cell in cells]


def _add_note(exc: BaseException, note: str) -> None:
    """Attach ``note`` to ``exc`` — ``add_note`` on 3.11+, the plain
    ``__notes__`` attribute on 3.10 (same shape, just not auto-printed)."""
    add_note = getattr(exc, "add_note", None)
    if add_note is not None:
        add_note(note)
    else:  # pragma: no cover - py3.10
        notes = getattr(exc, "__notes__", None)
        if notes is None:
            notes = []
            exc.__notes__ = notes
        notes.append(note)


def pmap_workloads(specs: Sequence[WorkloadSpec], *, workers: int = 0,
                   chunk_size: Optional[int] = None,
                   executor_factory: Optional[Callable[[int], Executor]] = None
                   ) -> list[RunResult]:
    """Run every spec and return full :class:`RunResult` values in input
    order.  The experiment-module fan-out path: results are exactly what
    ``run_workload`` would have produced serially (sealed seeded cells),
    so callers assemble tables/series byte-identically.

    Unlike :func:`run_cells` a worker exception here propagates — paper
    experiments must not silently drop cells.  Inline (``workers <= 1``)
    that is the first failing spec, at once; on a pool, when several
    chunks fail, the first failure is raised with every other failure
    chained onto it as ``__notes__`` naming each failed chunk's index
    and spec labels, so no failure identity is ever discarded.
    """
    specs = list(specs)
    if workers <= 1 and executor_factory is None:
        return [run_workload(spec) for spec in specs]

    size = chunk_size if chunk_size else default_chunk_size(len(specs), workers)
    chunks = _chunks(specs, size)
    results: list[Optional[list[RunResult]]] = [None] * len(chunks)
    failures: list[tuple[int, BaseException]] = []

    def _chunk_desc(idx: int) -> str:
        labels = [spec.label() for spec in chunks[idx]]
        shown = "; ".join(labels[:3])
        if len(labels) > 3:
            shown += f"; ... {len(labels) - 3} more"
        return shown

    def on_chunk_done(idx: int, value, error: Optional[BaseException]) -> None:
        if error is not None:
            failures.append((idx, error))
        else:
            results[idx] = value

    if chunks:
        run_chunks(chunks, lambda chunk: (run_spec_chunk, chunk),
                   on_chunk_done, workers=workers,
                   executor_factory=executor_factory)
    if failures:
        failures.sort(key=lambda pair: pair[0])
        first_idx, primary = failures[0]
        _add_note(primary,
                  f"pmap chunk {first_idx} failed (specs: {_chunk_desc(first_idx)})")
        for idx, exc in failures[1:]:
            _add_note(primary,
                      f"also failed: chunk {idx} "
                      f"(specs: {_chunk_desc(idx)}): {exc!r}")
        raise primary
    return [result for chunk_results in results for result in chunk_results]
