"""Process-pool experiment engine: shard sealed seeded cells across
workers, merge deterministically (see docs/architecture.md § Parallel
experiments).

Quick start::

    from repro.parallel import run_sweep_parallel
    from repro.workload import WorkloadSpec

    res = run_sweep_parallel(
        WorkloadSpec(n_nodes=5, threads_per_node=4, n_locks=100),
        axes={"lock_kind": ["alock", "mcs", "spinlock"],
              "locality_pct": [85.0, 95.0]},
        seeds=range(3), workers=4)
    res.write(json_path="sweep.json", csv_path="sweep.csv")

The output is byte-identical at any ``workers`` value.
``enumerate_grid`` is the one cartesian driver and ``pmap_outcomes`` the
one fan-out: a sweep reduces each cell's ``RunResult`` to a row, an
experiment (``repro.experiments.base.run_specs``) keeps it whole.
"""

from repro.parallel.cells import (Cell, CellFailure, check_boundary_value,
                                  worker_entry)
from repro.parallel.engine import (METRICS, default_chunk_size,
                                   pmap_outcomes, pmap_workloads)
from repro.parallel.sweep import (ParallelSweepResult, enumerate_grid,
                                  run_sweep_parallel)

__all__ = [
    "Cell", "CellFailure", "check_boundary_value", "worker_entry",
    "METRICS", "default_chunk_size", "pmap_outcomes", "pmap_workloads",
    "ParallelSweepResult", "enumerate_grid", "run_sweep_parallel",
]
