"""Process-pool experiment engine: shard sealed seeded cells across
workers, merge deterministically (see docs/architecture.md § Parallel
experiments).

Quick start::

    from repro.parallel import pmap_outcomes
    from repro.workload import WorkloadSpec

    base = WorkloadSpec(n_nodes=5, threads_per_node=4, n_locks=100)
    specs = [base.with_(lock_kind=kind, seed=seed)
             for kind in ("alock", "mcs", "spinlock") for seed in range(3)]
    outcomes = pmap_outcomes(specs, workers=4)

``outcomes[i]`` is ``specs[i]``'s ``RunResult`` (or the ``CellFailure``
it ended in), the same at any ``workers`` value.  ``pmap_outcomes`` is
the one fan-out: an experiment reaches it through
``repro.experiments.base.run_specs``, which keeps each result whole.
"""

from repro.parallel.cells import (Cell, CellFailure, check_boundary_value,
                                  worker_entry)
from repro.parallel.engine import (default_chunk_size, pmap_outcomes,
                                   pmap_workloads)

__all__ = [
    "Cell", "CellFailure", "check_boundary_value", "worker_entry",
    "default_chunk_size", "pmap_outcomes", "pmap_workloads",
]
