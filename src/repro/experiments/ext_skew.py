"""Experiment ``ext-skew`` — Zipfian lock popularity (beyond the paper).

The paper sweeps *uniform* lock choice at three table sizes.  Real lock
services see skewed popularity; a Zipfian workload concentrates traffic
on a few hot locks, which favors designs that pass the lock efficiently.
This experiment sweeps the skew parameter and reports ALock's advantage
over the best baseline at each level.

Asserted is what every seed tried supports (0–5, ``smoke`` and
``small``): ALock leads under mild skew (θ = 0.5), and skew costs every
lock throughput.  Whether the lead *persists* is reported as numbers,
because it depends on the scale: on the ``smoke`` cluster it compresses
(2.1× → 1.8× as θ goes 0.5 → 1.3) and never inverts; at ``small`` scale
(5 nodes × 12 threads) it inverts — at θ = 1.3 ALock reaches 0.64–0.95×
of the best baseline in five of six seeds (3.17× at seed 0), and at
θ = 0.99 it trails in four of six.  Why is not established here — most
traffic then targets one hot lock, whose home RNIC every remote handoff
crosses; the per-run "why" report of ROADMAP item 2 is the tool for it.
EXPERIMENTS.md records the inversion under "Summary of deviations".
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis import ratio
from repro.experiments.base import ExperimentResult, run_specs, scale_params
from repro.parallel import Cell
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

    mild = THETAS[0]
    result.check(f"ALock leads under mild skew (theta = {mild})",
                 advantage[mild] > 1.0)
    result.check(
        "skew costs every lock throughput",
        all(tputs[mild, kind] > max(tputs[theta, kind]
                                    for theta in THETAS[1:])
            for kind in LOCKS))
    result.notes.append(
        "advantage over the best baseline by theta: "
        + ", ".join(f"{t}: {advantage[t]:.2f}x" for t in THETAS))
    trailing = [theta for theta in THETAS if advantage[theta] < 1.0]
    if trailing:
        result.notes.append(
            "ALock trails the best baseline at theta = "
            + ", ".join(str(theta) for theta in trailing))
    return result
