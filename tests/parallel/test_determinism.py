"""Deterministic-merge guarantees: ``pmap_outcomes`` returns the same
outcomes, byte for byte, at any worker count and chunk size, and the
experiment modules produce identical results serial vs parallel."""

from __future__ import annotations

import pytest

from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.parallel import CellFailure, pmap_outcomes
from repro.workload.spec import WorkloadSpec
from tests.conftest import recorded_fanout
from tests.parallel.conftest import outcome_bytes

#: Small, count-mode base so each cell is a few milliseconds.
BASE = WorkloadSpec(n_nodes=2, threads_per_node=1, n_locks=20,
                    ops_per_thread=20, audit="off")

#: A fig5/fig6-style grid: the three lock types × contention × locality.
SPECS = [BASE.with_(lock_kind=kind, n_locks=n_locks, locality_pct=locality)
         for kind in ("alock", "spinlock", "mcs") for n_locks in (20, 100)
         for locality in (90.0, 100.0)]


def test_single_worker_matches_serial_byte_identical():
    serial = pmap_outcomes(SPECS, workers=0)
    one = pmap_outcomes(SPECS, workers=1)
    assert outcome_bytes(serial) == outcome_bytes(one)


def test_workers4_byte_identical_to_serial():
    """The acceptance gate: a fig5/fig6-style grid on 4 workers, byte
    for byte the serial outcomes."""
    serial = pmap_outcomes(SPECS, workers=0)
    par = pmap_outcomes(SPECS, workers=4)
    assert outcome_bytes(serial) == outcome_bytes(par)
    assert not any(isinstance(out, CellFailure) for out in serial)


def test_chunk_size_does_not_change_output():
    serial = outcome_bytes(pmap_outcomes(SPECS, workers=0))
    for chunk_size in (1, 3, 100):
        par = pmap_outcomes(SPECS, workers=2, chunk_size=chunk_size)
        assert serial == outcome_bytes(par)


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
