"""Deterministic-merge guarantees: the serialized sweep output is
byte-identical at any worker count, and the experiment modules produce
identical results serial vs parallel."""

from __future__ import annotations

import pytest

from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.parallel import enumerate_grid, pmap_outcomes, run_sweep_parallel
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
    # Coordinates carry the axis assignments; the list order is the
    # output order.
    assert dict(cells[0].coords) == {"seed": 0, "lock_kind": "alock",
                                     "n_locks": 20, "locality_pct": 90.0}
    assert [c.spec for c in cells] == [BASE.with_(**dict(c.coords))
                                       for c in cells]
    # Seeds are the outermost axis: the second half repeats the grid.
    half = len(cells) // 2
    assert all(dict(c.coords)["seed"] == 0 for c in cells[:half])
    assert all(dict(c.coords)["seed"] == 1 for c in cells[half:])


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


def test_pmap_outcomes_in_input_order():
    """Outcomes come back by input position, not completion order."""
    specs = [BASE.with_(lock_kind=k) for k in ("alock", "mcs", "spinlock")]
    done = []
    outcomes = pmap_outcomes(specs, workers=2, chunk_size=1,
                             on_result=lambda i, r: done.append(i))
    assert [r.spec for r in outcomes] == specs
    assert sorted(done) == [0, 1, 2]


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
