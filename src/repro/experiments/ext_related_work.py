"""Experiment ``ext-related`` — the §1/§7 alternatives, measured.

Not a figure in the paper: the authors dismiss the filter lock, bakery
and RPC designs analytically.  This experiment runs them against ALock
on the same lock-table workload so the dismissals become data, plus the
CXL outlook (naive mixed-CAS lock on a coherent fabric).
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis import ratio
from repro.cluster import Cluster
from repro.experiments.base import (ExperimentResult, is_strict, run_specs,
                                    scale_params)
from repro.locks import make_lock
from repro.locks.extensions.coherent import cxl_config
from repro.parallel import Cell
from repro.workload import WorkloadSpec

CONTENDERS = (
    ("alock", {}),
    ("rpc", {}),
    ("filter", {"max_slots": 8}),
    ("bakery", {"max_slots": 8}),
)


def _cells(params: dict, seed: int) -> Iterator[Cell]:
    """The contended table; the uncontended costs probe a raw ``Cluster``."""
    top = max(params["threads"])
    base = WorkloadSpec(
        n_nodes=3, threads_per_node=top, n_locks=12,
        locality_pct=95.0, warmup_ns=params["warmup_ns"],
        measure_ns=params["measure_ns"], seed=seed, audit="off")
    for kind, options in CONTENDERS:
        yield Cell(kind, base.with_(lock_kind=kind, lock_options=options))
    if top > 4:     # thread scaling; smoke's grid *is* at 4
        for kind in ("alock", "rpc"):
            yield Cell(f"{kind}@4", base.with_(lock_kind=kind,
                                               threads_per_node=4))


def _uncontended_ns(kind: str, options: dict, cluster=None) -> float:
    cluster = cluster or Cluster(2, audit="off")
    lock = make_lock(kind, cluster, 1, **options)
    ctx = cluster.thread_ctx(0, 0)
    env = cluster.env

    def proc():
        yield from lock.lock(ctx)
        yield from lock.unlock(ctx)
        start = env.now
        yield from lock.lock(ctx)
        yield from lock.unlock(ctx)
        return env.now - start

    p = env.process(proc())
    cluster.run()
    assert p.ok, p.value
    return p.value


def run(scale: str = "small", seed: int = 0,
        workers: int = 0) -> ExperimentResult:
    params = scale_params(scale)
    cells = list(_cells(params, seed))
    results = run_specs((cell.spec for cell in cells), workers)
    result = ExperimentResult(
        "ext-related",
        "Related-work alternatives (filter / bakery / RPC / CXL) vs ALock",
        scale)

    # -- uncontended remote op cost ---------------------------------------
    costs = {kind: _uncontended_ns(kind, options)
             for kind, options in CONTENDERS}
    costs["filter(4)"] = _uncontended_ns("filter", {"max_slots": 4})
    for kind in ("mixedcas", "alock"):
        costs[f"{kind}@cxl"] = _uncontended_ns(
            kind, {}, Cluster(2, config=cxl_config(), audit="off"))
    for kind, cost in costs.items():
        result.rows.append({"metric": "uncontended_remote_op_ns",
                            "lock": kind, "value": round(cost),
                            "vs_alock": round(ratio(cost, costs["alock"]), 1)})

    # -- contended throughput ---------------------------------------------
    tputs = {kind: results[spec].throughput_ops_per_sec
             for kind, spec in cells}
    for kind, tput in tputs.items():
        result.rows.append({"metric": "throughput_ops", "lock": kind,
                            "value": round(tput),
                            "vs_alock": round(ratio(tput, tputs["alock"]), 3)})

    # costs["filter"] and costs["bakery"] are the CONTENDERS entries: 8 slots.
    result.check("filter and bakery pay O(n) verbs: > 2x ALock uncontended",
                 costs["filter(4)"] > 2 * costs["alock"]
                 and costs["bakery"] > 2 * costs["alock"])
    result.check("filter lock pays O(n) verbs: slot growth raises cost",
                 costs["filter"] > 1.5 * costs["filter(4)"])
    result.check("RPC pays two traversals: the same order as ALock "
                 "uncontended (> 0.5x)",
                 costs["rpc"] > 0.5 * costs["alock"])
    result.check("CXL outlook: mixed-CAS within 3x of ALock on the coherent "
                 "fabric, where ALock itself is cheaper than on RDMA",
                 costs["mixedcas@cxl"] < 3 * costs["alock@cxl"]
                 and costs["alock@cxl"] < costs["alock"])
    result.check("ALock beats filter and bakery by >= 10x",
                 tputs["alock"] >= 10 * tputs["filter"]
                 and tputs["alock"] >= 10 * tputs["bakery"])
    if is_strict(scale):
        result.check("ALock beats the RPC service at scale by > 2x "
                     "(server CPU bound)",
                     tputs["alock"] > 2 * tputs["rpc"])
    if "rpc@4" in tputs:
        result.check("RPC is flat from 4 threads to the top count (< 1.25x) "
                     "while ALock keeps scaling (> 1.25x)",
                     tputs["rpc"] < 1.25 * tputs["rpc@4"]
                     and tputs["alock"] > 1.25 * tputs["alock@4"])
    result.notes.append(
        "CXL outlook (§7): on a coherent fabric the naive one-word lock "
        f"costs {costs['mixedcas@cxl']:.0f} ns uncontended remote — within "
        "reach of ALock, while remaining incorrect on plain RDMA "
        "(see tests/locks/test_extensions.py).")
    return result
