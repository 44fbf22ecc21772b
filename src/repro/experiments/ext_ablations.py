"""Experiment ``ext-ablations`` — one modelled mechanism altered at a time
(beyond the paper), each with the consequence DESIGN.md's rationale
predicts:

* ``congestion`` — RX-congestion model off: the Fig. 1 decline goes, so
  it is *caused* by the modelled RX-buffer accumulation, not by the
  closed-loop clients;
* ``strict-rdma`` — Algorithm 3 uses rWrite for every remote-cohort
  interaction, even to a descriptor on the caller's own node; the
  short-circuit to local stores is a small win at most;
* ``backoff`` — spinlock backoff trims wasted rCAS traffic under high
  contention but does not close the gap to ALock;
* ``budget`` — budget 1 forces a Peterson reacquire on almost every
  pass, a huge budget disables cross-cohort yielding: throughput is
  monotone-ish, the remote p99 is the fairness price of the huge one;
* ``mcs-poll`` — pacing the MCS baseline's loopback polling trades spin
  traffic for hand-off delay; neither setting rescues it.

Each ablation needs its own pressure, so the cluster shapes are fixed;
the scale sets the measurement window.
"""

from __future__ import annotations

from typing import Iterator

from repro.experiments.base import (ExperimentResult, run_direct, run_specs,
                                    scale_params)
from repro.parallel import Cell
from repro.rdma.config import RdmaConfig
from repro.workload import WorkloadSpec

#: The NIC model is not a ``WorkloadSpec`` axis: the two model-off runs
#: are direct runs (``run_direct``) of the ``congestion`` cells' specs.
FLAT_NIC = RdmaConfig().with_nic(rx_congestion_factor=0.0)
BUDGETS = {"tiny": (1, 1), "paper": (20, 5), "huge": (10_000, 10_000)}


def _cells(params: dict, seed: int) -> Iterator[Cell]:
    """One cell per variant, keyed ``(ablation, variant)``."""
    base = WorkloadSpec(warmup_ns=params["warmup_ns"],
                        measure_ns=params["measure_ns"], seed=seed,
                        audit="off")
    fig1 = base.with_(n_nodes=1, n_locks=1000, lock_kind="spinlock")
    for threads in (8, 16):
        yield Cell(("congestion", f"{threads} threads"),
                   fig1.with_(threads_per_node=threads))
    cohorts = base.with_(n_nodes=3, threads_per_node=8, n_locks=6,
                         locality_pct=50.0)
    for variant, strict in (("strict", True), ("relaxed", False)):
        yield Cell(("strict-rdma", variant), cohorts.with_(
            lock_options={"strict_remote_rdma": strict}))
    hot = base.with_(n_nodes=5, threads_per_node=12, n_locks=20,
                     locality_pct=90.0)
    yield Cell(("backoff", "plain"), hot.with_(lock_kind="spinlock"))
    yield Cell(("backoff", "backoff"), hot.with_(
        lock_kind="spinlock", lock_options={"backoff_ns": 1_000.0}))
    yield Cell(("backoff", "alock"), hot)
    queued = base.with_(n_nodes=5, threads_per_node=8, n_locks=5,
                        locality_pct=90.0)
    for variant, (remote_budget, local_budget) in BUDGETS.items():
        yield Cell(("budget", variant), queued.with_(lock_options={
            "remote_budget": remote_budget, "local_budget": local_budget}))
    paced = cohorts.with_(locality_pct=90.0)
    yield Cell(("mcs-poll", "tight"), paced.with_(lock_kind="mcs"))
    yield Cell(("mcs-poll", "paced"), paced.with_(
        lock_kind="mcs", lock_options={"poll_interval_ns": 3_000.0}))
    yield Cell(("mcs-poll", "alock"), paced)


def run(scale: str = "small", seed: int = 0,
        workers: int = 0) -> ExperimentResult:
    params = scale_params(scale)
    cells = list(_cells(params, seed))
    results = run_specs((cell.spec for cell in cells), workers)
    result = ExperimentResult(
        "ext-ablations", "Ablations: one modelled mechanism altered at a time",
        scale)
    runs = {}
    for (ablation, variant), spec in cells:
        runs[ablation, variant] = results[spec]
        if ablation == "congestion":
            runs[ablation, f"{variant}, model off"] = run_direct(
                spec, config=FLAT_NIC)
    for (ablation, variant), res in runs.items():
        remote = res.remote_latency
        result.rows.append({
            "ablation": ablation, "variant": variant,
            "throughput_ops": round(res.throughput_ops_per_sec),
            "remote_p99_ns": round(remote.p99) if remote.count else 0,
        })
    tput = {key: res.throughput_ops_per_sec for key, res in runs.items()}

    result.check(
        "congestion model on: 16 threads fall below 0.75x of the 8-thread "
        "rate (the Fig. 1 decline)",
        tput["congestion", "16 threads"]
        < 0.75 * tput["congestion", "8 threads"])
    result.check(
        "congestion model off: no decline (16 threads >= 0.95x of 8)",
        tput["congestion", "16 threads, model off"]
        >= 0.95 * tput["congestion", "8 threads, model off"])
    strict, relaxed = (tput["strict-rdma", v] for v in ("strict", "relaxed"))
    result.check(
        "same-node short-circuit never hurts (relaxed >= 0.95x strict) and "
        "strict Algorithm 3 stays within 25% of it",
        relaxed >= 0.95 * strict and strict >= 0.75 * relaxed)
    plain, backoff = (tput["backoff", v] for v in ("plain", "backoff"))
    result.check("spinlock backoff is not catastrophic (> 0.8x plain)",
                 backoff > 0.8 * plain)
    result.check(
        "backoff never closes the gap: ALock > 2.5x the better spinlock",
        tput["backoff", "alock"] > 2.5 * max(plain, backoff))
    result.check("paper budgets keep >= 0.9x of budget-1 throughput",
                 tput["budget", "paper"] >= 0.9 * tput["budget", "tiny"])
    result.check(
        "yielding disabled (huge budgets): remote p99 >= the paper budgets'",
        runs["budget", "huge"].remote_latency.p99
        >= runs["budget", "paper"].remote_latency.p99)
    result.check(
        "ALock > 2x the better of tight and paced MCS polling",
        tput["mcs-poll", "alock"]
        > 2 * max(tput["mcs-poll", "tight"], tput["mcs-poll", "paced"]))
    return result
