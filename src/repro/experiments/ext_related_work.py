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
from repro.experiments.base import (Cell, ExperimentResult, is_strict,
                                    run_specs, scale_params)
from repro.locks import make_lock
from repro.locks.extensions.coherent import cxl_config
from repro.workload import WorkloadSpec

CONTENDERS = (
    ("alock", {}),
    ("rpc", {}),
    ("filter", {"max_slots": 8}),
    ("bakery", {"max_slots": 8}),
)


def _cells(params: dict, seed: int) -> Iterator[Cell]:
    """The contended table; the uncontended costs probe a raw ``Cluster``."""
    for kind, options in CONTENDERS:
        yield Cell(kind, WorkloadSpec(
            n_nodes=3, threads_per_node=max(params["threads"]), n_locks=12,
            locality_pct=95.0, lock_kind=kind, lock_options=options,
            warmup_ns=params["warmup_ns"], measure_ns=params["measure_ns"],
            seed=seed, audit="off"))


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
    costs["mixedcas@cxl"] = _uncontended_ns(
        "mixedcas", {}, Cluster(2, config=cxl_config(), audit="off"))
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

    # costs["filter"] is the CONTENDERS entry: 8 slots.
    result.check("filter lock pays O(n) verbs: slot growth raises cost",
                 costs["filter"]
                 > 1.5 * _uncontended_ns("filter", {"max_slots": 3}))
    result.check("ALock beats filter and bakery by >= 10x",
                 tputs["alock"] >= 10 * tputs["filter"]
                 and tputs["alock"] >= 10 * tputs["bakery"])
    if is_strict(scale):
        result.check("ALock beats the RPC service at scale (server CPU bound)",
                     tputs["alock"] > 1.5 * tputs["rpc"])
    result.notes.append(
        "CXL outlook (§7): on a coherent fabric the naive one-word lock "
        f"costs {costs['mixedcas@cxl']:.0f} ns uncontended remote — within "
        "reach of ALock, while remaining incorrect on plain RDMA "
        "(see tests/locks/test_extensions.py).")
    return result
