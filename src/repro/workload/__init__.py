"""Workload specification, generation, execution and metrics.

This is the benchmark harness of §6: closed-loop clients against a
distributed lock table, parameterized by cluster size, threads/node,
table size (logical contention), and **locality** — the probability that
an operation targets a lock homed on the calling thread's node.

Two termination modes:

* ``ops_per_thread`` (count mode) — every client performs exactly N
  operations; used for correctness runs (guarded counters verified).
* ``measure_ns`` (duration mode) — clients run forever; operations that
  *complete* inside the measurement window (after warmup) are counted
  and timed; used for throughput/latency experiments like the paper's.

The names below are re-exported lazily (:mod:`repro.common.lazy`): a
schedule walk, which builds no :class:`RunResult`, loads neither the
metrics nor the fairness module.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workload.spec": ("WorkloadSpec",),
    "repro.workload.generator": ("LockPicker",),
    "repro.workload.fairness": ("FairnessReport", "jain_index", "min_max_share"),
    "repro.workload.metrics": ("LatencySummary", "RunResult"),
    "repro.workload.runner": ("run_workload",),
})

__all__ = [
    "WorkloadSpec",
    "LockPicker",
    "RunResult",
    "LatencySummary",
    "FairnessReport",
    "jain_index",
    "min_max_share",
    "run_workload",
]
