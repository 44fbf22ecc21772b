"""Failure-path regressions for the parallel engine.

Three bug classes, each of which used to lose information:

* a worker returning a *malformed* chunk (wrong shape, wrong keys,
  missing cells) aborted the whole sweep with a generic late
  ``SimulationError("sweep lost cells ...")`` instead of failing just
  the unanswered cells;
* ``pmap_workloads`` raised only ``failures[0]``, discarding every
  other chunk failure and the failing chunk's identity;
* ``enumerate_grid`` silently let an explicit ``"seed"`` axis collide
  with the ``seeds=`` parameter (the axis overwrote the seeds).
"""

from __future__ import annotations

from concurrent.futures import Executor, Future

import pytest

from repro.common.errors import ConfigError
from repro.parallel import (CellResult, SweepCell, cell_key, enumerate_grid,
                            pmap_workloads, run_cells)
from repro.workload.spec import WorkloadSpec

BASE = WorkloadSpec(n_nodes=2, threads_per_node=1, n_locks=20,
                    ops_per_thread=10, audit="off")


def _cells(n: int) -> list[SweepCell]:
    return [SweepCell(index=i, key=cell_key(i, {"seed": i}),
                      spec=BASE.with_(seed=i))
            for i in range(n)]


class _TamperingExecutor(Executor):
    """Inline executor that corrupts chosen chunks' return values.

    ``tamper(chunk_counter, value)`` sees each successive submission's
    real result and returns what the "worker" hands back — the seam for
    modelling malformed/partial chunks without a real broken pool.
    """

    def __init__(self, tamper):
        self._tamper = tamper
        self._count = 0

    def submit(self, fn, *args, **kwargs):
        fut: Future = Future()
        try:
            value = fn(*args, **kwargs)
        except BaseException as exc:
            fut.set_exception(exc)
            return fut
        try:
            fut.set_result(self._tamper(self._count, value))
        except BaseException as exc:
            fut.set_exception(exc)
        finally:
            self._count += 1
        return fut

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestMalformedChunks:
    def _run(self, tamper, n=4):
        cells = _cells(n)
        results = run_cells(
            cells, workers=2, chunk_size=2,
            executor_factory=lambda workers: _TamperingExecutor(tamper))
        assert [r.key for r in results] == [c.key for c in cells]
        return results

    def test_partial_chunk_fails_only_missing_cells(self):
        """A worker that drops one cell of its chunk fails that cell;
        the chunk's other cell and all other chunks keep their rows."""
        results = self._run(
            lambda i, value: value[1:] if i == 0 else value)
        assert [r.ok for r in results] == [False, True, True, True]
        assert "malformed chunk 0" in results[0].error
        assert "no result for this cell" in results[0].error

    def test_wrong_shape_fails_whole_chunk(self):
        results = self._run(
            lambda i, value: "garbage" if i == 1 else value)
        assert [r.ok for r in results] == [True, True, False, False]
        assert "expected a list of CellResult" in results[2].error

    def test_foreign_keys_are_rejected_not_merged(self):
        """A result tagged with a key that was never submitted in the
        chunk must not leak into the merge; the submitted cell whose
        answer it displaced is recorded as failed."""
        alien = CellResult(key=cell_key(99, {"seed": 99}), ok=True,
                           row={"metric": 1.0})

        results = self._run(
            lambda i, value: [alien, value[1]] if i == 0 else value)
        assert [r.ok for r in results] == [False, True, True, True]
        assert "foreign key" in results[0].error
        assert all(r.key[0] != 99 for r in results)

    def test_duplicate_keys_are_flagged(self):
        results = self._run(
            lambda i, value: [value[0], value[0]] if i == 0 else value)
        assert results[0].ok
        assert not results[1].ok
        assert "duplicate key" in results[1].error

    def test_non_cellresult_entries_are_flagged(self):
        results = self._run(
            lambda i, value: [value[0], {"ok": True}] if i == 0 else value)
        assert results[0].ok
        assert not results[1].ok
        assert "non-CellResult entry" in results[1].error

    def test_serial_shell_validates_too(self, monkeypatch):
        """The in-process path (no pool, no executor) runs the same
        reconciliation: a lying worker function cannot lose a serial
        sweep either."""
        from repro.parallel import engine

        monkeypatch.setattr(engine, "run_cell_chunk",
                            lambda chunk, metric: [])  # drops every cell
        results = run_cells(_cells(2), chunk_size=1)
        assert [r.ok for r in results] == [False, False]
        assert all("malformed chunk" in r.error for r in results)


class TestPmapFailureChaining:
    def _boom_factory(self, bad_indices):
        def tamper(i, value):
            if i in bad_indices:
                raise RuntimeError(f"chunk {i} exploded")
            return value
        return lambda workers: _TamperingExecutor(tamper)

    def test_all_failures_chained_with_chunk_identity(self):
        specs = [BASE.with_(seed=s) for s in range(8)]
        with pytest.raises(RuntimeError) as excinfo:
            pmap_workloads(specs, workers=2, chunk_size=2,
                           executor_factory=self._boom_factory({0, 2, 3}))
        exc = excinfo.value
        # The primary failure is the lowest-index failing chunk ...
        assert "chunk 0 exploded" in str(exc)
        notes = "\n".join(getattr(exc, "__notes__", []))
        # ... its note names its own chunk index and spec keys ...
        assert "pmap chunk 0 failed" in notes
        assert "alock n2x1" in notes
        # ... and every other failure is chained, not discarded.
        assert "also failed: chunk 2" in notes
        assert "also failed: chunk 3" in notes
        assert "chunk 2 exploded" in notes

    def test_single_failure_still_raises_original_type(self):
        specs = [BASE.with_(seed=s) for s in range(4)]
        with pytest.raises(RuntimeError, match="chunk 1 exploded"):
            pmap_workloads(specs, workers=2, chunk_size=2,
                           executor_factory=self._boom_factory({1}))

    def test_successful_chunks_unaffected_by_note_machinery(self):
        specs = [BASE.with_(seed=s) for s in range(4)]
        results = pmap_workloads(
            specs, workers=2, chunk_size=2,
            executor_factory=self._boom_factory(set()))
        assert [r.spec.seed for r in results] == [0, 1, 2, 3]


class TestSeedAxisCollision:
    def test_explicit_seed_axis_with_seeds_param_raises(self):
        with pytest.raises(ConfigError, match="'seed' axis is reserved"):
            enumerate_grid(BASE, {"seed": [1, 2]}, seeds=[0, 1])

    def test_seed_axis_alone_is_allowed(self):
        cells = enumerate_grid(BASE, {"seed": [3, 4]})
        assert [dict(c.key[1:])["seed"] for c in cells] == [3, 4]
        assert [c.spec.seed for c in cells] == [3, 4]

    def test_seeds_param_alone_is_allowed(self):
        cells = enumerate_grid(BASE, {"lock_kind": ["alock"]}, seeds=[5])
        assert [c.spec.seed for c in cells] == [5]
