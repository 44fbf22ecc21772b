"""The measured side of the ledger: one workload in one fresh interpreter.

``run.py`` starts this file once per workload (``run``) and several
times per workload for the set-up probe (``setup``); each prints one
JSON object as its last line of standard output.

``run`` sequence: one checked *verify pass*, one untimed full-size
warm-up pass (whose digest and counters become the reference), then
identical timed passes, each bracketed by runs of the calibration
kernel (``calibrate.py``), until ``--seconds`` have been measured, and
with ``--trace 1`` one more pass under ``cProfile``.  The garbage
collector stays enabled, as users run it.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import resource
import statistics
import sys
import time

import calibrate
import layers
import workloads

#: a timed median needs a few samples even when one pass is long
MIN_TIMED_PASSES = 3
#: a pass whose wall clock exceeds its CPU time by more than this share
#: was descheduled (or waited) — reported, never dropped
DESCHEDULED_SHARE = 0.05


def counter_metrics(c: dict, ops: int) -> dict[str, float]:
    """The exact per-layer metrics, from one pass's counters."""
    qpc = c["qpc_hits"] + c["qpc_misses"]
    return {
        "sim.events_per_op": c["events"] / ops,
        "sim.resources.serves_per_op": c["serves"] / ops,
        "sim.resources.rx_peak_queue": c["rx_peak_queue"],
        "rdma.verbs_per_op": c["verbs"] / ops,
        "rdma.loopback_verbs_per_op": c["loopback_verbs"] / ops,
        "rdma.qpc_miss_rate": c["qpc_misses"] / qpc if qpc else 0.0,
        "rdma.tx_util_max": c["tx_util_max"],
        "rdma.rx_util_max": c["rx_util_max"],
        "memory.word_ops_per_op": c["word_ops"] / ops,
        "cluster.local_ops_per_op": c["local_ops"] / ops,
        "cluster.remote_ops_per_op": c["remote_ops"] / ops,
        "locks.local_op_share_pct": (100.0 * c["local_measured"] / c["measured"]
                                     if c["measured"] else 0.0),
        "workload.ops_per_pass": ops,
        "parallel.cells_per_pass": c["cells"],
        "schedcheck.schedules_per_pass": c["schedules"],
        "schedcheck.distinct_executions": c["distinct_executions"],
    }


def run(workload: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    from repro.sim.core import core_info

    tap = workloads.CounterTap()
    with workloads.tapped_build_cluster(tap):
        attempted, failed, problems = workloads.verify_pass(workload, seed, tap)
        reference = workloads.run_pass(workload, seed, tap, check_shape=True)
        measured = [("warm-up", reference)]

        passes = []
        budget = seconds / 2 if trace else seconds
        started = time.perf_counter()
        kernel_runs = [calibrate.kernel_s()]
        while (len(passes) < MIN_TIMED_PASSES
               or time.perf_counter() - started < budget):
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            result = workloads.run_pass(workload, seed, tap)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            kernel_runs.append(calibrate.kernel_s())
            measured.append((f"timed #{len(passes)}", result))
            passes.append({"wall_s": wall, "cpu_s": cpu,
                           "calibrated_s": calibrate.calibrated(
                               wall, statistics.mean(kernel_runs[-2:])),
                           "descheduled": wall > cpu * (1.0 + DESCHEDULED_SHARE)})

        ops = reference.ops
        walls = [p["wall_s"] for p in passes]
        # Fastest over fastest: the passes do identical work, so do the
        # kernel runs, and interference only ever adds time to either.
        pass_s = calibrate.calibrated(min(walls), min(kernel_runs))
        counters = counter_metrics(reference.counters, ops)
        per_layer = None
        if trace:
            profiler = cProfile.Profile()
            t0 = time.perf_counter()
            profiler.enable()
            result = workloads.run_pass(workload, seed, tap)
            profiler.disable()
            traced_wall = time.perf_counter() - t0
            measured.append(("traced", result))
            per_layer = layers.attribute(profiler.getstats(), ops)
            per_layer.update(counters)
            per_layer["sim.host_us_per_event"] = (
                pass_s / reference.counters["events"] * 1e6)
            per_layer["trace.overhead_x"] = traced_wall / statistics.median(walls)

    # Determinism guard: every pass repeats the warm-up's digest, counters
    # and simulated results exactly, or its ops count as failed.
    for label, result in measured:
        attempted += result.ops
        failed += result.failed_ops
        problems += result.problems
        if (result.digest, result.counters, result.sim) != (
                reference.digest, reference.counters, reference.sim):
            failed += result.ops
            problems.append(f"{label} pass diverged from the warm-up pass: "
                            f"digest {result.digest[:12]} vs {reference.digest[:12]}")

    q1, median, q3 = statistics.quantiles(
        [p["calibrated_s"] / ops * 1e6 for p in passes], n=4)
    sim = reference.sim
    return {
        "env": {
            "core_kind": core_info()["kind"],
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": {
            "host_us_per_op": pass_s / ops * 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_mops": sim["sim_mops"],
            "sim_p99_us": sim["sim_p99_us"],
        },
        "per_layer": per_layer,
        "info": {
            "digest": reference.digest,
            "ops_per_pass": ops,
            "n_passes": len(passes),
            "host_us_per_op_iqr_pct": 100.0 * (q3 - q1) / median,
            "wall_us_per_op_min": min(walls) / ops * 1e6,
            "wall_us_per_op_median": statistics.median(walls) / ops * 1e6,
            "passes": passes,
            "kernel_runs_s": kernel_runs,
            "sim_p50_us": sim["sim_p50_us"],
            "sim_p999_us": sim["sim_p999_us"],
            "sim_samples": sim["sim_samples"],
            "counters": counters,
        },
    }


def setup(workload: workloads.Workload, seed: int) -> dict:
    kernel_runs = [calibrate.kernel_s()]
    t0 = time.perf_counter()
    workloads.setup_once(workload, seed)
    wall = time.perf_counter() - t0
    kernel_runs.append(calibrate.kernel_s())
    return {"setup_s": calibrate.calibrated(wall, statistics.mean(kernel_runs)),
            "wall_s": wall, "kernel_runs_s": kernel_runs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("run", "setup"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.BY_NAME[args.workload]
    if args.action == "setup":
        out = setup(workload, args.seed)
    else:
        out = run(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
