"""Edge cases of the parallel engine: more workers than cells, failing
cells, specs refused before any cell runs, and interrupt handling (no
orphan processes)."""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.common.errors import ConfigError
from repro.parallel import CellFailure, pmap_outcomes
from repro.workload.spec import WorkloadSpec
from tests.parallel.conftest import outcome_bytes

BASE = WorkloadSpec(n_nodes=2, threads_per_node=1, n_locks=20,
                    ops_per_thread=10, audit="off")


def test_more_workers_than_cells():
    specs = [BASE.with_(seed=s) for s in range(2)]
    outcomes = pmap_outcomes(specs, workers=6)
    assert [r.spec for r in outcomes] == specs


def test_raising_cell_becomes_failed_record(hang):
    """A diverging cell comes home as its failure; the run completes
    and every other cell still produces its result."""
    specs = [BASE.with_(lock_kind=kind)
             for kind in ("alock", "mcs", "spinlock", hang)]
    outcomes = pmap_outcomes(specs, workers=2, chunk_size=1)
    assert [r.spec for r in outcomes[:3]] == specs[:3]
    failure = outcomes[3]
    assert isinstance(failure, CellFailure)
    assert "parked with an empty schedule" in failure.error


def test_raising_cell_serial_path_matches(hang):
    spec = BASE.with_(lock_kind=hang)
    (serial,) = pmap_outcomes([spec], workers=0)
    (par,) = pmap_outcomes([spec], workers=2)
    assert isinstance(serial, CellFailure) and isinstance(par, CellFailure)
    # Same exception, same first line (tracebacks differ by process).
    assert serial.error.splitlines()[0] == par.error.splitlines()[0]


def test_failed_cells_survive_serialization(hang):
    """A failure crosses the process boundary beside a result: the
    pooled outcomes are the inline ones (error text up to the
    process-specific traceback)."""
    specs = [BASE, BASE.with_(lock_kind=hang)]
    serial = pmap_outcomes(specs, workers=0)
    par = pmap_outcomes(specs, workers=2)
    assert [isinstance(out, CellFailure) for out in par] == [False, True]
    assert outcome_bytes(serial) == outcome_bytes(par)


def test_unknown_lock_kind_fails_before_any_cell_runs():
    seen = []
    for workers in (0, 2):
        with pytest.raises(ConfigError, match="unknown lock type 'nosuch'"):
            pmap_outcomes([BASE, BASE.with_(lock_kind="nosuch")],
                          workers=workers,
                          on_result=lambda i, out: seen.append(i))
    assert seen == []


def test_keyboard_interrupt_leaves_no_orphans():
    """An interrupt mid-run propagates out of ``pmap_outcomes`` and the
    pool is fully shut down — no orphan worker processes remain."""
    hits = {"n": 0}

    def boom(index, outcome):
        hits["n"] += 1
        if hits["n"] == 2:
            raise KeyboardInterrupt

    specs = [BASE.with_(ops_per_thread=200, seed=s) for s in range(16)]
    with pytest.raises(KeyboardInterrupt):
        pmap_outcomes(specs, workers=2, chunk_size=1, on_result=boom)
    # shutdown(wait=True) joins the pool before re-raising; give the
    # reaper a beat, then require every child to be gone.
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


def test_workers_beyond_cells_sweep_byte_identity():
    """Eight workers for one cell: the outcome is the inline one."""
    specs = [BASE]
    serial = pmap_outcomes(specs, workers=0)
    par = pmap_outcomes(specs, workers=8)
    assert outcome_bytes(serial) == outcome_bytes(par)


def test_unpicklable_spec_fails_before_any_cell_runs():
    class Weird:
        pass

    seen = []
    bad = BASE.with_(lock_options=(("x", Weird()),))
    with pytest.raises(ConfigError, match=r"specs\[1\]\.lock_options\[0\]\[1\]: "
                                          r"'Weird' may not cross the process boundary"):
        pmap_outcomes([BASE, bad], on_result=lambda i, out: seen.append(i))
    assert seen == []
