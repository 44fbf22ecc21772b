"""The process-pool experiment engine.

Every run is a *sealed seeded cell* — ``run_workload(spec)`` is a pure
function of the spec — so sharding cells across processes can change
the wall clock, never a result.  Every experiment's
:class:`WorkloadSpec` cell runs through one worker entry
(:func:`run_spec_chunk`) and one parent loop (:func:`pmap_outcomes`),
which audits every spec before any runs.  A raising cell comes home as a
:class:`~repro.parallel.cells.CellFailure`, and a chunk lost to a
worker crash fails each of its cells the same way, so serial and
pooled runs fail alike.

Chunks execute in one place, :func:`run_chunks`: inline and in order
when ``workers <= 1`` (the serial reference path — the same worker
functions, no pool), otherwise as chunked work-stealing on a process
pool, every chunk submitted up front so uneven cells load-balance
without a cost model.  Any error or ``KeyboardInterrupt`` in the parent
cancels pending chunks and joins the workers: no orphan processes.
This module is the repo's only pool chokepoint (simlint
``process-boundary``).
"""

from __future__ import annotations

import traceback
from concurrent.futures import FIRST_COMPLETED, Executor, ProcessPoolExecutor, wait
from typing import Callable, Optional, Sequence, Union

from repro.common.errors import SimulationError
from repro.locks.base import LOCK_TYPES, unknown_lock_type
from repro.obs import RING
from repro.parallel.cells import CellFailure, check_boundary_value, worker_entry
from repro.workload.metrics import RunResult
from repro.workload.runner import run_workload
from repro.workload.spec import WorkloadSpec

#: What one cell produced.
Outcome = Union[RunResult, CellFailure]


@worker_entry
def run_spec_chunk(chunk: "tuple[WorkloadSpec, ...]",
                   obs: int = RING) -> list[Outcome]:
    """Worker entry point: run a chunk of sealed specs at recording level
    ``obs``, building each cell's whole world — cluster, locks, workload
    — inside this process.  Per spec, its :class:`RunResult` (with its
    spans and metrics tree at ``INTERVALS``), or the
    :class:`CellFailure` it raised; an exception never escapes the
    chunk."""
    out: list[Outcome] = []
    for spec in chunk:
        try:
            out.append(run_workload(spec, obs=obs))
        except Exception as exc:
            # A failed verdict carries run_workload's post-mortem; the
            # dump travels home as a plain string.
            out.append(CellFailure(f"{exc!r}\n{traceback.format_exc()}",
                                   getattr(exc, "_postmortem", None)))
    return out


def default_chunk_size(n_items: int, workers: int) -> int:
    """Small chunks for work-stealing, large enough to amortize IPC:
    aim for ~4 chunks per worker, capped at 8 cells per chunk."""
    return max(1, min(8, -(-n_items // (max(1, workers) * 4))))


def run_chunks(chunks: "list[tuple]", submit_fn,
               on_chunk_done: Callable[[int, object, Optional[BaseException]], None],
               *, workers: int,
               executor_factory: Optional[Callable[[int], Executor]] = None) -> None:
    """Execute ``chunks`` and report ``(chunk_index, value, error)`` to
    ``on_chunk_done`` in completion order.  ``submit_fn(chunk)`` names
    the worker entry and its primitive arguments (the sealed-cell
    boundary).  No chunks, no pool; the pool, when there is one, is
    fully torn down — workers joined — before this returns or raises.

    ``workers <= 1`` without an ``executor_factory`` (the test seam,
    ``workers -> Executor``) runs the chunks inline; anything else is
    chunked work-stealing on a process pool."""
    if not chunks:
        return
    if workers <= 1 and executor_factory is None:
        for idx, chunk in enumerate(chunks):
            fn, *args = submit_fn(chunk)
            try:
                value, error = fn(*args), None
            except Exception as exc:
                value, error = None, exc
            on_chunk_done(idx, value, error)
        return
    executor = (executor_factory or ProcessPoolExecutor)(max(1, workers))
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


def pmap_outcomes(specs: Sequence[WorkloadSpec], *, workers: int = 0,
                  chunk_size: Optional[int] = None,
                  executor_factory: Optional[Callable[[int], Executor]] = None,
                  on_result: Optional[Callable[[int, Outcome], None]] = None,
                  obs: int = RING) -> list[Outcome]:
    """Run every spec at recording level ``obs`` and return its outcome
    — the :class:`RunResult`, or the :class:`CellFailure` it ended in —
    **in input order**, whatever the worker count (``<= 1``: inline) or
    completion order.  ``on_result(index, outcome)`` sees each outcome
    in completion order; ``chunk_size`` defaults to
    :func:`default_chunk_size`.

    Every spec is audited before any runs: one that could not cross the
    process boundary (:func:`check_boundary_value`) or names an
    unregistered lock kind is a :class:`ConfigError`, inline and pooled
    alike."""
    specs = list(specs)
    check_boundary_value(specs, "specs")
    for spec in specs:
        if spec.lock_kind not in LOCK_TYPES:
            raise unknown_lock_type(spec.lock_kind)
    size = chunk_size or default_chunk_size(len(specs), workers)
    chunks = [tuple(specs[i:i + size]) for i in range(0, len(specs), size)]
    outcomes: list = [None] * len(specs)

    def on_chunk_done(idx: int, value, error: Optional[BaseException]) -> None:
        if error is not None:
            # The whole chunk died (worker crash / broken pool).
            value = [CellFailure(f"chunk failure: {error!r}")] * len(chunks[idx])
        for i, outcome in enumerate(value, idx * size):
            outcomes[i] = outcome
            if on_result is not None:
                on_result(i, outcome)

    run_chunks(chunks, lambda chunk: (run_spec_chunk, chunk, obs), on_chunk_done,
               workers=workers, executor_factory=executor_factory)
    return outcomes


def pmap_workloads(specs: Sequence[WorkloadSpec], *, workers: int = 0,
                   chunk_size: Optional[int] = None,
                   executor_factory: Optional[Callable[[int], Executor]] = None,
                   obs: int = RING) -> list[RunResult]:
    """Run every spec and return full :class:`RunResult` values in input
    order — the experiment-module fan-out.  Results are exactly what
    ``run_workload`` would have produced serially (sealed seeded cells),
    so callers assemble tables/series byte-identically.

    Paper experiments must not silently drop a cell: when any spec
    fails, every spec still runs and one :class:`SimulationError` names
    each failed spec — input position, label, seed and its error's
    first line — in input order, inline and pooled alike.
    """
    specs = list(specs)
    outcomes = pmap_outcomes(specs, workers=workers, chunk_size=chunk_size,
                             executor_factory=executor_factory, obs=obs)
    # A loop, not a comprehension: the one Python call this saves pays
    # for pmap_outcomes' audit, so a fan-out costs the engine layer the
    # calls per pass the exact ledger recorded before the audit moved here.
    failed = []
    for i, (spec, out) in enumerate(zip(specs, outcomes)):
        if isinstance(out, CellFailure):
            failed.append(f"  [{i}] {spec.label()} seed={spec.seed}: "
                          f"{out.error.splitlines()[0]}")
    if failed:
        raise SimulationError(f"{len(failed)} of {len(specs)} cell(s) "
                              f"failed:\n" + "\n".join(failed))
    return outcomes
