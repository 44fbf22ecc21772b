"""Experiment ``ext-phases`` — lock-phase latency decomposition (beyond
the paper; quantifies the Fig. 6 narrative).

Fig. 6 explains *why* ALock wins on local accesses — no loopback verbs,
shared-memory MCS queue — but the paper supports the explanation only
with end-to-end CDFs.  With typed spans on, every operation splits into
an exact partition: queue-wait / cross-cohort-wait / critical-section /
release.  This experiment runs the three §6 locks under the same
contended workload — three cells of one fan-out, recorded at the
``INTERVALS`` level — and reports where each one's latency actually
goes:

* for **ALock**, cross-cohort (Peterson) wait is visible and bounded,
  and local-cohort queue wait is cheap (shared-memory, event-driven);
* for **MCS**, all waiting is loopback-polled queue wait — same
  discipline as ALock's remote cohort, paid on *every* access;
* for the **spinlock**, there is no queue at all: the entire latency is
  "queue_wait" (rCAS retry storm) with nothing attributable.

Shape checks are quantitative, not narrative: the per-op phase sums must
equal the workload runner's independently-measured end-to-end samples to
float tolerance — the decomposition is proven against the ground truth
it claims to explain.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import (ExperimentResult, is_strict, run_specs,
                                    scale_params)
from repro.obs import INTERVALS
from repro.obs.phases import extract_operations, phase_summary
from repro.parallel import Cell
from repro.workload import WorkloadSpec

LOCKS = ("alock", "mcs", "spinlock")


def run(scale: str = "small", seed: int = 0,
        workers: int = 0) -> ExperimentResult:
    """One cell per lock kind, run at the ``INTERVALS`` level: each cell's
    spans come home in its ``RunResult`` from whichever process ran it."""
    params = scale_params(scale)
    n_nodes = max(params["nodes"])
    threads = max(params["threads"])
    ops = max(10, params["measure_ns"] // 100_000)
    result = ExperimentResult(
        "ext-phases", "Lock-phase latency decomposition: queue-wait / "
        "cross-cohort / critical-section / release per lock kind", scale)
    base = WorkloadSpec(
        n_nodes=n_nodes, threads_per_node=threads, n_locks=20,
        locality_pct=90.0, ops_per_thread=int(ops), cs_ns=500.0,
        seed=seed, audit="off")
    cells = [Cell(kind, base.with_(lock_kind=kind)) for kind in LOCKS]
    results = run_specs((cell.spec for cell in cells), workers, obs=INTERVALS)

    summaries: dict[str, dict] = {}
    sums_match = True
    counts_match = True
    for kind, spec in cells:
        res = results[spec]
        lock_ops = extract_operations(res.spans)
        # Ground truth: every span-derived operation latency must equal a
        # runner-measured sample (count mode measures all ops).
        span_e2e = np.sort(np.array([op.end_to_end_ns for op in lock_ops]))
        runner_e2e = np.sort(res.latencies_ns)
        counts_match &= len(span_e2e) == len(runner_e2e)
        sums_match &= counts_match and bool(
            np.allclose(span_e2e, runner_e2e, rtol=1e-9, atol=1e-6))
        summary = phase_summary(lock_ops)
        summaries[kind] = summary
        result.rows.append({
            "lock": kind,
            "ops": summary["count"],
            "e2e_ns": round(summary["mean_end_to_end_ns"]),
            "queue_wait_ns": round(summary["mean_queue_wait_ns"]),
            "cross_cohort_ns": round(summary["mean_cross_cohort_ns"]),
            "cs_ns": round(summary["mean_critical_section_ns"]),
            "release_ns": round(summary["mean_release_ns"]),
            "queue_share_pct": round(100 * summary["share_queue_wait"], 1),
            "cross_share_pct": round(100 * summary["share_cross_cohort"], 1),
        })
        # Locality split for the Fig. 6 narrative (ALock local vs remote).
        if kind == "alock":
            for cohort_name, cohort_ops in sorted(
                    _split_by_cohort(lock_ops).items()):
                s = phase_summary(cohort_ops)
                if s["count"]:
                    result.rows.append({
                        "lock": f"alock/{cohort_name}",
                        "ops": s["count"],
                        "e2e_ns": round(s["mean_end_to_end_ns"]),
                        "queue_wait_ns": round(s["mean_queue_wait_ns"]),
                        "cross_cohort_ns": round(s["mean_cross_cohort_ns"]),
                        "cs_ns": round(s["mean_critical_section_ns"]),
                        "release_ns": round(s["mean_release_ns"]),
                        "queue_share_pct": round(100 * s["share_queue_wait"], 1),
                        "cross_share_pct": round(100 * s["share_cross_cohort"], 1),
                    })
                    summaries[f"alock/{cohort_name}"] = s

    result.check(
        "span-derived operation count equals runner-measured sample count",
        counts_match)
    result.check(
        "phase sums equal end-to-end latency samples (float tolerance)",
        sums_match)
    result.check(
        "only ALock competes cross-cohort (Peterson spans exclusive to it)",
        summaries["alock"]["mean_cross_cohort_ns"] > 0
        and summaries["mcs"]["mean_cross_cohort_ns"] == 0
        and summaries["spinlock"]["mean_cross_cohort_ns"] == 0)
    result.check(
        "cross-cohort wait is a minority share of ALock latency (budget "
        "amortizes Peterson over the cohort)",
        summaries["alock"]["share_cross_cohort"] < 0.5)
    if is_strict(scale) and "alock/local" in summaries \
            and "alock/remote" in summaries:
        result.check(
            "ALock local-cohort acquire wait is below the remote cohort's "
            "(Fig. 6: shared-memory path vs verb path)",
            (summaries["alock/local"]["mean_queue_wait_ns"]
             + summaries["alock/local"]["mean_cross_cohort_ns"])
            < (summaries["alock/remote"]["mean_queue_wait_ns"]
               + summaries["alock/remote"]["mean_cross_cohort_ns"]))

    result.notes.append(
        "mean end-to-end: "
        + ", ".join(f"{k}: {summaries[k]['mean_end_to_end_ns']:.0f}ns"
                    for k in LOCKS))
    result.notes.append(
        "ALock phase shares: queue {:.0f}%, cross-cohort {:.0f}%, "
        "cs {:.0f}%, release {:.0f}%".format(
            100 * summaries["alock"]["share_queue_wait"],
            100 * summaries["alock"]["share_cross_cohort"],
            100 * summaries["alock"]["share_critical_section"],
            100 * summaries["alock"]["share_release"]))
    return result


def _split_by_cohort(lock_ops) -> dict[str, list]:
    """Partition ALock operations by the cohort annotated on the acquire
    span (local = the access hit the lock's home node)."""
    groups: dict[str, list] = {"local": [], "remote": []}
    for op in lock_ops:
        if op.cohort in groups:
            groups[op.cohort].append(op)
    return groups
