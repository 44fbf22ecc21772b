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

``enumerate_grid`` is the one cartesian driver: for each cell's full
``RunResult`` instead of a row, ``repro.experiments.base.run_specs`` its specs.

The output is byte-identical at any ``workers`` value — and, with a
:class:`ResultCache` (memoized cell rows), identical again when most
cells come out of the content-addressed store instead of a worker::

    from repro.parallel import ResultCache

    cache = ResultCache(".alock-cache")
    res = run_sweep_parallel(..., workers=4, cache=cache)   # computes
    res = run_sweep_parallel(..., workers=4, cache=cache)   # all hits
"""

from repro.parallel.cache import (CacheStats, ResultCache,
                                  SourceFingerprinter, canonical_spec)
from repro.parallel.cells import (CellResult, SweepCell, cell_key,
                                  check_boundary_value, worker_entry)
from repro.parallel.engine import (METRICS, default_chunk_size,
                                   pmap_workloads, run_cells)
from repro.parallel.store import BlobStore
from repro.parallel.sweep import (ParallelSweepResult, enumerate_grid,
                                  run_sweep_parallel)

__all__ = [
    "CellResult",
    "SweepCell",
    "cell_key",
    "check_boundary_value",
    "worker_entry",
    "METRICS",
    "default_chunk_size",
    "pmap_workloads",
    "run_cells",
    "ParallelSweepResult",
    "enumerate_grid",
    "run_sweep_parallel",
    "CacheStats",
    "ResultCache",
    "SourceFingerprinter",
    "canonical_spec",
    "BlobStore",
]
