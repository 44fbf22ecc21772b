"""Experiment ``fig1`` — RDMA loopback saturation (paper Fig. 1, §2).

The paper's motivating microbenchmark: an RDMA CAS spinlock over 1000
locks (negligible logical contention) on a **single machine**, all
accesses through loopback.  Throughput peaks at a few threads, then
*declines* as loopback traffic drains PCIe bandwidth and the RX buffer
accumulates.

Paper shape: rise → peak at a small thread count → decline.
"""

from __future__ import annotations

from typing import Iterator

from repro.experiments.base import ExperimentResult, run_specs, scale_params
from repro.parallel import Cell
from repro.workload import WorkloadSpec


def _cells(params: dict, seed: int) -> Iterator[Cell]:
    for threads in params["fig1_threads"]:
        yield Cell(threads, WorkloadSpec(
            n_nodes=1, threads_per_node=threads, n_locks=1000,
            locality_pct=100.0, lock_kind="spinlock",
            warmup_ns=params["warmup_ns"], measure_ns=params["measure_ns"],
            seed=seed, audit="off"))


def run(scale: str = "small", seed: int = 0,
        workers: int = 0) -> ExperimentResult:
    params = scale_params(scale)
    result = ExperimentResult(
        "fig1", "RDMA spinlock with 1k locks on 1 node (loopback saturation)",
        scale)
    cells = list(_cells(params, seed))
    results = run_specs((cell.spec for cell in cells), workers)
    threads_axis = [threads for threads, _ in cells]
    throughputs = []
    for threads, spec in cells:
        run_result = results[spec]
        tput = run_result.throughput_ops_per_sec
        throughputs.append(tput)
        rx = run_result.nic_stats[0]
        result.rows.append({
            "threads": threads,
            "throughput_ops": round(tput),
            "p50_ns": round(run_result.latency.p50),
            "p99_ns": round(run_result.latency.p99),
            "rx_utilization": round(rx["rx_utilization"], 3),
            "rx_peak_queue": rx["rx_peak_queue"],
            "loopback_verbs": run_result.loopback_verbs,
        })
    result.series["fig1"] = (threads_axis, {"spinlock": throughputs})
    peak_idx = max(range(len(throughputs)), key=throughputs.__getitem__)
    result.check("throughput peaks strictly inside the thread sweep",
                 0 < peak_idx < len(throughputs) - 1)
    result.check("throughput rises with every step up to the peak",
                 all(throughputs[i] < throughputs[i + 1]
                     for i in range(peak_idx)))
    result.check("throughput declines past the peak to < 0.75x of it "
                 "(RX-buffer congestion)",
                 throughputs[-1] < 0.75 * throughputs[peak_idx])
    result.check("the RX pipeline is saturated at the largest thread count "
                 "(utilization > 0.9)",
                 result.rows[-1]["rx_utilization"] > 0.9)
    result.check("all traffic is loopback",
                 all(row["loopback_verbs"] > 0 for row in result.rows))
    result.notes.append(
        f"peak at {threads_axis[peak_idx]} threads "
        f"({throughputs[peak_idx]:.0f} op/s); paper observes the peak at a "
        f"few threads on a 8-core/16-thread Xeon with a CX-3 RNIC.")
    return result
