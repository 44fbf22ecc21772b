"""Deterministic-merge guarantees: the serialized sweep output is
byte-identical at any worker count, and the experiment modules produce
identical results serial vs parallel."""

from __future__ import annotations

import pytest

from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.parallel import enumerate_grid, run_cells, run_sweep_parallel
from repro.workload.spec import WorkloadSpec
from tests.conftest import recorded_fanout

#: Small, count-mode base so each cell is a few milliseconds.
BASE = WorkloadSpec(n_nodes=2, threads_per_node=1, n_locks=20,
                    ops_per_thread=20, audit="off")

#: Fig5/fig6-style axes: the three lock types × contention × locality.
AXES = {"lock_kind": ["alock", "spinlock", "mcs"],
        "n_locks": [20, 100],
        "locality_pct": [90.0, 100.0]}


def test_enumerate_grid_order_and_keys():
    cells = enumerate_grid(BASE, AXES, seeds=[0, 1])
    assert len(cells) == 2 * 3 * 2 * 2
    # Keys carry the enumeration index first and the axis assignments.
    assert [c.index for c in cells] == list(range(len(cells)))
    assert cells[0].key[0] == 0
    assert dict(cells[0].key[1:]) == {"seed": 0, "lock_kind": "alock",
                                      "n_locks": 20, "locality_pct": 90.0}
    # Seeds are the outermost axis: the second half repeats the grid.
    half = len(cells) // 2
    assert all(dict(c.key[1:])["seed"] == 0 for c in cells[:half])
    assert all(dict(c.key[1:])["seed"] == 1 for c in cells[half:])


def test_single_worker_matches_serial_byte_identical():
    serial = run_sweep_parallel(BASE, AXES, workers=0)
    one = run_sweep_parallel(BASE, AXES, workers=1)
    assert serial.to_json_bytes() == one.to_json_bytes()
    assert serial.to_csv_bytes() == one.to_csv_bytes()


def test_workers4_byte_identical_to_serial():
    """The acceptance gate: fig5/fig6-style config axes, 4 workers,
    byte-identical JSON and CSV."""
    serial = run_sweep_parallel(BASE, AXES, seeds=[0], workers=0)
    par = run_sweep_parallel(BASE, AXES, seeds=[0], workers=4)
    assert serial.to_json_bytes() == par.to_json_bytes()
    assert serial.to_csv_bytes() == par.to_csv_bytes()
    assert not serial.failures


def test_chunk_size_does_not_change_output():
    serial = run_sweep_parallel(BASE, AXES, workers=0)
    for chunk_size in (1, 3, 100):
        par = run_sweep_parallel(BASE, AXES, workers=2, chunk_size=chunk_size)
        assert serial.to_json_bytes() == par.to_json_bytes()


def test_run_cells_results_in_key_order():
    cells = enumerate_grid(BASE, {"lock_kind": ["alock", "mcs"]})
    results = run_cells(cells, workers=2, chunk_size=1)
    assert [r.key for r in results] == [c.key for c in cells]


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_experiment_parallel_parity(experiment_id, smoke_figure):
    """Every experiment via the registry: the serial run holds its shapes,
    and workers=2 — which reaches the pool wherever there are cells to
    shard — reproduces its rows, series, shape checks and report exactly."""
    serial = smoke_figure(experiment_id)
    assert serial.all_shapes_hold, serial.shape_checks
    with recorded_fanout() as pooled:
        par = run_experiment(experiment_id, scale="smoke", seed=0, workers=2)
    assert [workers for _, workers in pooled.calls] == \
        [2] * len(smoke_figure.fanout[experiment_id].calls)
    assert serial.rows == par.rows
    assert serial.shape_checks == par.shape_checks
    assert serial.series == par.series
    assert serial.to_markdown() == par.to_markdown()
