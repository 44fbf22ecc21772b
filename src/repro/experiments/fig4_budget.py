"""Experiment ``fig4`` — budget sensitivity (paper Fig. 4, §6.1).

Sweep the (remote_budget, local_budget) grid and report throughput
relative to the (5, 5) baseline, averaged over 95/90/85% locality —
exactly the paper's methodology (their cluster: 20 nodes, 100 locks,
medium contention).

Paper shape: raising the remote budget while keeping the local budget
low helps (up to ~23%), because the reacquire operation is much more
expensive for the remote cohort (remote spinning in Peterson's
algorithm) than for the local cohort.
"""

from __future__ import annotations

from itertools import product
from statistics import mean
from typing import Iterator

from repro.analysis import relative_speedup
from repro.experiments.base import (ExperimentResult, is_strict, run_specs,
                                    scale_params)
from repro.parallel import Cell
from repro.workload import WorkloadSpec

BASELINE_BUDGET = 5


def _cells(scale: str, params: dict, seed: int) -> Iterator[Cell]:
    """One cell per budget pair and locality, keyed by the pair."""
    # The paper runs 20 nodes x 100 locks (~2.4 threads per lock).  The
    # budget only matters while cohort queues actually form, so smaller
    # scales keep the *threads-per-lock pressure* rather than the
    # absolute table size.
    n_nodes = max(params["nodes"])
    threads = max(params["threads"])
    # One lock per node at reduced scales keeps the cross-cohort queue
    # pressure of the paper's 240-thread/100-lock configuration.
    n_locks = 100 if scale == "paper" else n_nodes
    for remote_budget in params["budgets"]:
        for local_budget in params["budgets"]:
            for locality in params["localities"]:
                yield Cell((remote_budget, local_budget), WorkloadSpec(
                    n_nodes=n_nodes, threads_per_node=threads, n_locks=n_locks,
                    locality_pct=locality, lock_kind="alock",
                    lock_options={"remote_budget": remote_budget,
                                  "local_budget": local_budget},
                    warmup_ns=params["warmup_ns"],
                    measure_ns=params["measure_ns"], seed=seed, audit="off"))


def run(scale: str = "small", seed: int = 0,
        workers: int = 0) -> ExperimentResult:
    params = scale_params(scale)
    cells = list(_cells(scale, params, seed))
    results = run_specs((cell.spec for cell in cells), workers)
    result = ExperimentResult(
        "fig4",
        "Relative speedup vs (remote=5, local=5) budgets, averaged over "
        "95/90/85% locality",
        scale)

    # Throughput of a budget pair = the mean over its locality mix.
    samples: dict[tuple[int, int], list[float]] = {}
    for pair, spec in cells:
        samples.setdefault(pair, []).append(
            results[spec].throughput_ops_per_sec)
    baseline = mean(samples[(BASELINE_BUDGET, BASELINE_BUDGET)])
    speedups: dict[tuple[int, int], float] = {}
    for (remote_budget, local_budget), pair_samples in samples.items():
        tput = mean(pair_samples)
        speedup = relative_speedup(tput, baseline)
        speedups[(remote_budget, local_budget)] = speedup
        result.rows.append({
            "remote_budget": remote_budget,
            "local_budget": local_budget,
            "throughput_ops": round(tput),
            "speedup_vs_5_5_pct": round(speedup, 1),
        })

    max_budget = max(params["budgets"])
    best = max(speedups, key=speedups.get)
    result.check(
        "every (remote, local) budget pair of the grid has a row",
        set(speedups) == set(product(params["budgets"], repeat=2)))
    result.check(
        "the (5, 5) baseline reads 0.0% against itself",
        speedups[(BASELINE_BUDGET, BASELINE_BUDGET)] == 0.0)
    if is_strict(scale):
        result.check(
            "raising the remote budget (local fixed at 5) does not regress "
            "and trends positive",
            speedups[(max_budget, BASELINE_BUDGET)] >= -1.0)
        result.check(
            "remote budget is monotone-ish at local=5 (20 >= 5 within 1%)",
            speedups[(max_budget, BASELINE_BUDGET)]
            >= speedups[(BASELINE_BUDGET, BASELINE_BUDGET)] - 1.0)
    result.notes.append(
        f"best budget pair: remote={best[0]}, local={best[1]} "
        f"({speedups[best]:+.1f}%); the paper selects remote=20, local=5 "
        f"(up to +23%) and so do the library defaults.")
    result.notes.append(
        "DEVIATION: the paper finds *lowering* the local budget helps "
        "(+23% at remote=20/local=5) because long local chains make the "
        "remote leader's Peterson spinning flood the target RNIC.  In the "
        "simulator that spin traffic is too light to dominate, so larger "
        "local budgets mildly *raise* total throughput (cheap local passes "
        "weigh more) at the cost of remote-op latency.  The remote-budget "
        "direction (raising it helps) reproduces.")
    return result
