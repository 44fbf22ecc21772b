"""Experiment ``ext-skew`` — Zipfian lock popularity (beyond the paper).

The paper sweeps *uniform* lock choice at three table sizes.  Real lock
services see skewed popularity; a Zipfian workload concentrates traffic
on a few hot locks, which favors designs that pass the lock efficiently.
This experiment sweeps the skew parameter and checks that ALock's lead
*persists* under skew.  (Measured: the lead compresses slightly as skew
grows — deep queues on hot locks let the MCS-style baselines amortize
their loopback overhead through passing too — but never inverts.)
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis import ratio
from repro.experiments.base import (Cell, ExperimentResult, is_strict,
                                    run_specs, scale_params)
from repro.workload import WorkloadSpec

THETAS = (0.5, 0.99, 1.3)
LOCKS = ("alock", "spinlock", "mcs")


def _cells(params: dict, seed: int) -> Iterator[Cell]:
    for theta in THETAS:
        for kind in LOCKS:
            yield Cell((theta, kind), WorkloadSpec(
                n_nodes=max(params["nodes"]),
                threads_per_node=max(params["threads"]), n_locks=100,
                locality_pct=90.0, lock_kind=kind,
                distribution="zipfian", zipf_theta=theta,
                warmup_ns=params["warmup_ns"],
                measure_ns=params["measure_ns"], seed=seed, audit="off"))


def run(scale: str = "small", seed: int = 0,
        workers: int = 0) -> ExperimentResult:
    params = scale_params(scale)
    cells = list(_cells(params, seed))
    results = run_specs((cell.spec for cell in cells), workers)
    result = ExperimentResult(
        "ext-skew", "Zipfian lock popularity: ALock advantage vs skew", scale)

    tputs = {key: results[spec].throughput_ops_per_sec for key, spec in cells}
    advantage = {theta: ratio(tputs[theta, "alock"],
                              max(tputs[theta, "spinlock"], tputs[theta, "mcs"]))
                 for theta in THETAS}
    for (theta, kind), tput in tputs.items():
        result.rows.append({
            "zipf_theta": theta, "lock": kind,
            "throughput_ops": round(tput),
            "alock_advantage": round(advantage[theta], 2),
        })

    result.check("ALock leads at every skew level",
                 all(a > 1.0 for a in advantage.values()))
    if is_strict(scale):
        result.check(
            "ALock's advantage does not shrink as skew concentrates load",
            advantage[THETAS[-1]] >= 0.8 * advantage[THETAS[0]])
    result.notes.append(
        "advantage over the best baseline by theta: "
        + ", ".join(f"{t}: {advantage[t]:.2f}x" for t in THETAS))
    return result
