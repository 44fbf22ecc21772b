"""Determinism self-test: ``python -m repro.obs.selftest``.

Runs one small instrumented workload and prints the full Perfetto trace
JSON and flat metrics JSON to stdout.  The tier-1 gate test runs this
module under different ``PYTHONHASHSEED`` values and asserts the output
is **byte-identical** — the observability layer's ordering discipline
(insertion-ordered dicts, sorted snapshots, ``sort_keys`` JSON) is
thereby enforced end to end, not just unit by unit.
"""

from __future__ import annotations

from repro.obs import INTERVALS
from repro.obs.export import CapturedRun, metrics_json, trace_json
from repro.obs.phases import extract_operations, phase_summary
from repro.workload.runner import run_workload
from repro.workload.spec import WorkloadSpec


def selftest_output(seed: int = 3) -> str:
    """The canonical output string (exposed for in-process tests)."""
    spec = WorkloadSpec(
        n_nodes=3, threads_per_node=2, n_locks=6, locality_pct=75.0,
        ops_per_thread=8, cs_ns=300.0, seed=seed, lock_kind="alock",
        audit="off")
    result = run_workload(spec, obs=INTERVALS)
    run = CapturedRun("obs-selftest", result.spans, result.obs_metrics)
    ops = extract_operations(result.spans)
    lines = [
        f"ops={len(ops)}",
        f"phase_summary={sorted(phase_summary(ops).items())}",
        f"trace={trace_json([run])}",
        f"metrics={metrics_json([run])}",
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    print(selftest_output())
