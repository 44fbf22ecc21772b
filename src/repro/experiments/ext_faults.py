"""Experiment ``ext-faults`` — throughput under injected faults (beyond
the paper).

The paper evaluates a failure-free cluster; a production lock service
sees lost packets, latency spikes and stalled holders.  This experiment
sweeps the injected verb-loss rate with retransmission enabled and
measures how each lock's throughput degrades, then runs a holder-stall
scenario to exercise the lease-based stall detection.  Two properties
matter:

* a *zero-fault* plan is free — the harness must produce bit-identical
  results to the fault-free code path; and
* under loss, every run still completes: retries mask the drops, and the
  retry counters in ``RunResult`` say how hard the transport worked —
  more with every step of the loss rate, and more for the baselines,
  which issue more verbs per op, than for ALock.

What loss does to *throughput* is reported, not asserted, because it
depends on how congested the NICs already are.  On the uncongested
``smoke`` cluster it costs every lock 14–39 % at 3 % loss (six of six
seeds).  At ``small`` scale (12 threads per node, RX pipelines
saturated by loopback) a dropped verb is a 25 µs back-off: MCS *gains*
8–15 % in six of six seeds, the spinlock stays within 6 %, and ALock —
whose loss-free rate itself varies 15–26 M ops/s with the seed — keeps
0.68–1.17× of it, still ≥ 2.9× ahead of both baselines.
"""

from __future__ import annotations

from typing import Iterator

from repro.experiments.base import (ExperimentResult, is_strict, run_specs,
                                    scale_params)
from repro.faults import FaultPlan
from repro.parallel import Cell
from repro.workload import WorkloadSpec

LOSS_RATES = (0.0, 0.01, 0.03)
LOCKS = ("alock", "spinlock", "mcs")

#: Requester retry policy used throughout the sweep: timeout ~10× the
#: unloaded verb RTT, doubled per retransmission.
RETRY = dict(retry_timeout_ns=25_000.0, retry_backoff=2.0, retry_limit=8)
#: A cell is keyed by (row label, loss rate).  The sweep's label is the
#: lock kind; the two scenario cells are ALock runs under these keys.
ZERO_PLAN, STALLS = ("alock+zero-plan", 0.0), ("alock+stalls", 0.005)


def _cells(params: dict, seed: int) -> Iterator[Cell]:
    base = WorkloadSpec(
        n_nodes=max(params["nodes"]), threads_per_node=max(params["threads"]),
        n_locks=100, locality_pct=90.0, warmup_ns=params["warmup_ns"],
        measure_ns=params["measure_ns"], seed=seed, audit="off")
    for rate in LOSS_RATES:
        for kind in LOCKS:
            plan = FaultPlan(verb_loss_rate=rate, **RETRY) if rate else None
            yield Cell((kind, rate), base.with_(lock_kind=kind, faults=plan))
    yield Cell(ZERO_PLAN, base.with_(lock_kind="alock", faults=FaultPlan()))
    yield Cell(STALLS, base.with_(lock_kind="alock", faults=FaultPlan(
        verb_loss_rate=STALLS[1], holder_stall_rate=0.02,
        holder_stall_ns=10 * params["measure_ns"] / 100,
        lease_ns=params["measure_ns"] / 40, **RETRY)))


def run(scale: str = "small", seed: int = 0,
        workers: int = 0) -> ExperimentResult:
    params = scale_params(scale)
    cells = list(_cells(params, seed))
    results = run_specs((cell.spec for cell in cells), workers)
    result = ExperimentResult(
        "ext-faults", "Fault injection: throughput vs verb-loss rate, "
        "plus lease-based stall detection", scale)
    runs = {key: results[spec] for key, spec in cells}
    for (label, rate), res in runs.items():
        if (label, rate) == ZERO_PLAN:
            continue                    # compared below, not a table row
        result.rows.append({
            "loss_pct": rate * 100, "lock": label,
            "throughput_ops": round(res.throughput_ops_per_sec),
            "retries": res.retry_count,
            "recoveries": res.recovery_count,
            "aborted_clients": res.fault_stats.get("aborted_clients", 0),
        })
    tput = {key: res.throughput_ops_per_sec for key, res in runs.items()}

    # -- zero-fault plan must be free --------------------------------------
    plain, zero = runs["alock", 0.0], runs[ZERO_PLAN]
    result.check(
        "zero-fault FaultPlan reproduces the fault-free run exactly",
        plain.completed_ops == zero.completed_ops
        and plain.measured_ops == zero.measured_ops
        and not zero.fault_stats)

    # -- loss sweep --------------------------------------------------------
    worst = LOSS_RATES[-1]
    result.check(
        "retries mask the drops: every lossy run keeps > 0.3x of its "
        "lock's loss-free throughput",
        all(tput[k, r] > 0.3 * tput[k, 0.0] > 0
            for k in LOCKS for r in LOSS_RATES[1:]))
    retries = {key: res.retry_count for key, res in runs.items()}
    result.check(
        "retransmissions grow with the loss rate",
        all(retries[k, 0.0] == 0 and all(
            retries[k, lo] < retries[k, hi]
            for lo, hi in zip(LOSS_RATES, LOSS_RATES[1:])) for k in LOCKS))
    result.check(
        "the baselines, with more verbs per op, retransmit more than ALock",
        all(retries[k, r] > retries["alock", r]
            for k in ("spinlock", "mcs") for r in LOSS_RATES[1:]))
    if is_strict(scale):
        result.check(
            "ALock still leads both baselines at the highest loss rate",
            tput["alock", worst] > max(tput["spinlock", worst],
                                       tput["mcs", worst]))

    # -- holder stalls + lease detection -----------------------------------
    stalled = runs[STALLS]
    result.check(
        "lease monitor detects injected holder stalls",
        stalled.fault_stats.get("injected_cs_stalls", 0) > 0
        and stalled.fault_stats.get("lease_expirations", 0) > 0)
    result.check(
        "stalled run degrades but does not deadlock",
        0 < stalled.throughput_ops_per_sec < tput["alock", 0.0])

    result.notes.append(
        "throughput retained at {:.0f}% loss: ".format(worst * 100)
        + ", ".join(f"{k}: {tput[k, worst] / tput[k, 0.0]:.2f}x"
                    for k in LOCKS))
    return result
