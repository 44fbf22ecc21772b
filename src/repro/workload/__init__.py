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
"""

from repro.workload.spec import WorkloadSpec
from repro.workload.generator import LockPicker
from repro.workload.fairness import FairnessReport, jain_index, min_max_share
from repro.workload.metrics import LatencySummary, RunResult
from repro.workload.runner import run_workload

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
