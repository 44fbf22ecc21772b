"""Edge cases of the parallel engine: more workers than cells, failing
cells, unknown lock kinds, and interrupt handling (no orphan
processes)."""

from __future__ import annotations

import json
import multiprocessing
import time

import pytest

from repro.common.errors import ConfigError
from repro.parallel import (CellFailure, enumerate_grid, pmap_outcomes,
                            run_sweep_parallel)
from repro.workload.spec import WorkloadSpec

BASE = WorkloadSpec(n_nodes=2, threads_per_node=1, n_locks=20,
                    ops_per_thread=10, audit="off")


def test_more_workers_than_cells():
    specs = [BASE.with_(seed=s) for s in range(2)]
    outcomes = pmap_outcomes(specs, workers=6)
    assert [r.spec for r in outcomes] == specs


def test_raising_cell_becomes_failed_record(hang):
    """A diverging cell is recorded as failed; the sweep completes and
    every other cell still produces its row."""
    res = run_sweep_parallel(
        BASE, {"lock_kind": ["alock", "mcs", "spinlock", hang]},
        workers=2, chunk_size=1)
    assert len(res.results) == 4
    assert len(res.rows) == 3
    ((cell, failure),) = res.failures
    assert cell.coords == (("lock_kind", "hang"),)
    assert "parked with an empty schedule" in failure.error


def test_raising_cell_serial_path_matches(hang):
    spec = BASE.with_(lock_kind=hang)
    (serial,) = pmap_outcomes([spec], workers=0)
    (par,) = pmap_outcomes([spec], workers=2)
    assert isinstance(serial, CellFailure) and isinstance(par, CellFailure)
    # Same exception, same first line (tracebacks differ by process).
    assert serial.error.splitlines()[0] == par.error.splitlines()[0]


def test_failed_cells_survive_serialization(hang):
    axes = {"lock_kind": ["alock", hang]}
    serial = run_sweep_parallel(BASE, axes, workers=0)
    par = run_sweep_parallel(BASE, axes, workers=2)
    assert len(serial.failures) == len(par.failures) == 1
    assert len(serial.rows) == 1
    # Byte identity must hold for the *rows*; error text includes
    # process-specific traceback paths, so compare the JSON payloads
    # minus the error field.
    s = json.loads(serial.to_json_bytes())
    p = json.loads(par.to_json_bytes())
    for cs, cp in zip(s["cells"], p["cells"]):
        assert cs["key"] == cp["key"]
        assert cs["ok"] == cp["ok"]
        assert cs["row"] == cp["row"]


def test_unknown_lock_kind_fails_before_any_cell_runs():
    seen = []
    with pytest.raises(ConfigError, match="unknown lock type 'nosuch'"):
        run_sweep_parallel(BASE, {"lock_kind": ["alock", "nosuch"]},
                           on_result=lambda cell, res: seen.append(cell))
    assert seen == []


def test_keyboard_interrupt_leaves_no_orphans():
    """An interrupt mid-sweep propagates out of the sweep and the pool
    is fully shut down — no orphan worker processes remain."""
    hits = {"n": 0}

    def boom(cell, result):
        hits["n"] += 1
        if hits["n"] == 2:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_sweep_parallel(BASE.with_(ops_per_thread=200), {},
                           seeds=range(16), workers=2, chunk_size=1,
                           on_result=boom)
    # shutdown(wait=True) joins the pool before re-raising; give the
    # reaper a beat, then require every child to be gone.
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


def test_unknown_metric_rejected():
    with pytest.raises(ConfigError, match="unknown metric"):
        run_sweep_parallel(BASE, {}, metric="nope")


def test_empty_grid():
    res = run_sweep_parallel(BASE, {"lock_kind": []}, workers=2)
    assert res.results == []
    assert res.to_csv_bytes().startswith(b"index,")


def test_workers_beyond_cells_sweep_byte_identity():
    axes = {"lock_kind": ["alock"]}
    serial = run_sweep_parallel(BASE, axes, workers=0)
    par = run_sweep_parallel(BASE, axes, workers=8)
    assert serial.to_json_bytes() == par.to_json_bytes()


def test_enumerate_grid_rejects_unpicklable_axis():
    class Weird:
        pass

    with pytest.raises(ConfigError, match="process boundary"):
        enumerate_grid(BASE, {"lock_options": [((("x", Weird()),))]})
