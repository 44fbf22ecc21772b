"""Failure-path regressions for the parallel engine.

Bug classes that each used to lose information:

* a chunk lost to a worker crash must fail exactly its own cells, never
  the whole run;
* ``pmap_workloads`` must name *every* failed spec, not just the first
  failure it happened to see, and an inline run must fail the way a
  pooled one does instead of stopping at its first failing cell.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future

import pytest

from repro.common.errors import SimulationError
from repro.parallel import CellFailure, pmap_outcomes, pmap_workloads
from repro.workload.spec import WorkloadSpec

BASE = WorkloadSpec(n_nodes=2, threads_per_node=1, n_locks=20,
                    ops_per_thread=10, audit="off")


class _CrashingExecutor(Executor):
    """Inline executor whose chosen submissions die as a lost worker's
    would: the future holds an exception instead of the chunk's value."""

    def __init__(self, crash):
        self._crash = crash
        self._count = 0

    def submit(self, fn, *args, **kwargs):
        fut: Future = Future()
        if self._count in self._crash:
            fut.set_exception(RuntimeError(f"chunk {self._count} exploded"))
        else:
            fut.set_result(fn(*args, **kwargs))
        self._count += 1
        return fut

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _crashing(*chunks):
    return lambda workers: _CrashingExecutor(set(chunks))


class TestCrashedChunks:
    def test_crashed_chunk_fails_only_its_cells(self):
        specs = [BASE.with_(seed=s) for s in range(4)]
        outcomes = pmap_outcomes(specs, workers=2, chunk_size=2,
                                 executor_factory=_crashing(1))
        assert [r.spec for r in outcomes[:2]] == specs[:2]
        assert outcomes[2:] == [CellFailure(
            "chunk failure: RuntimeError('chunk 1 exploded')")] * 2


class TestPmapFailures:
    def test_one_error_names_every_failed_spec(self):
        specs = [BASE.with_(seed=s) for s in range(8)]
        with pytest.raises(SimulationError) as excinfo:
            pmap_workloads(specs, workers=2, chunk_size=2,
                           executor_factory=_crashing(0, 2, 3))
        lines = str(excinfo.value).splitlines()
        assert lines[0] == "6 of 8 cell(s) failed:"
        assert [line.split()[0] for line in lines[1:]] == \
            ["[0]", "[1]", "[4]", "[5]", "[6]", "[7]"]
        assert "alock n2x1 locks=20 loc=100% seed=4: chunk failure: " \
            "RuntimeError('chunk 2 exploded')" in lines[3]

    def test_inline_run_does_not_stop_at_a_failure(self, hang):
        """Every cell runs, and the inline error reads exactly as the
        pooled one."""
        specs = [BASE.with_(lock_kind=hang), BASE,
                 BASE.with_(lock_kind=hang, seed=1)]
        errors = []
        for workers in (0, 2):
            with pytest.raises(SimulationError) as excinfo:
                pmap_workloads(specs, workers=workers)
            errors.append(str(excinfo.value))
        serial, pooled = errors
        assert serial == pooled
        assert serial.startswith("2 of 3 cell(s) failed:\n  [0] hang ")
        assert "\n  [2] hang n2x1 locks=20 loc=100% seed=1: " in serial
        assert "parked with an empty schedule" in serial

