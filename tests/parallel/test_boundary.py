"""The process-boundary contract: only primitive-keyed cell specs cross
into workers, and everything that crosses survives pickling unchanged."""

from __future__ import annotations

import pickle

import pytest

from repro.common.errors import ConfigError
from repro.faults import FaultPlan
from repro.parallel import check_boundary_value, enumerate_grid, worker_entry
from repro.parallel.engine import run_spec_chunk
from repro.workload.spec import WorkloadSpec


def test_worker_entry_marks_function():
    @worker_entry
    def f(x):
        return x

    assert f.__is_worker_entry__ is True
    assert f(3) == 3


def test_engine_entry_points_are_marked():
    assert run_spec_chunk.__is_worker_entry__


def test_boundary_accepts_primitives_and_frozen_dataclasses():
    check_boundary_value(1)
    check_boundary_value("x")
    check_boundary_value(None)
    check_boundary_value((1, [2.0, "a"], {"k": b"v"}))
    check_boundary_value(WorkloadSpec(ops_per_thread=1))
    check_boundary_value(WorkloadSpec(ops_per_thread=1, faults=FaultPlan()))


def test_boundary_rejects_live_objects():
    from repro.sim.core import Environment

    with pytest.raises(ConfigError, match="process boundary"):
        check_boundary_value(Environment())
    with pytest.raises(ConfigError, match="process boundary"):
        check_boundary_value({"env": Environment()})
    with pytest.raises(ConfigError, match=r"cell\[1\]"):
        check_boundary_value((1, object()))


def test_cells_pickle_round_trip_unchanged():
    """What the pool actually ships: cells must round-trip through
    pickle bit-for-bit (frozen dataclasses of primitives do)."""
    base = WorkloadSpec(n_nodes=2, threads_per_node=1, n_locks=20,
                        ops_per_thread=5)
    cells = enumerate_grid(base, {"lock_kind": ["alock", "mcs"],
                                  "locality_pct": [90.0, 100.0]}, seeds=[0, 7])
    blob = pickle.dumps(tuple(cells))
    restored = pickle.loads(blob)
    assert tuple(cells) == restored
    for cell in restored:
        check_boundary_value(cell)


def test_cell_key_stable():
    """A sweep cell's coordinates are its ``(axis, value)`` pairs, seed
    first, then the axes in declared order — the JSON ``key``."""
    (cell,) = enumerate_grid(WorkloadSpec(ops_per_thread=1),
                             {"lock_kind": ["alock"]}, seeds=[1])
    assert cell.coords == (("seed", 1), ("lock_kind", "alock"))
