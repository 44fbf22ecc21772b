"""Observability overhead benchmark.

Runs the same Fig. 5-style workload three ways — observability off,
spans only, spans + metrics — and records the wall-clock overhead of
each instrumented configuration relative to the off baseline in
``benchmark.extra_info``.  Also asserts the layer's two contracts:

* **Non-perturbation**: all three configurations report identical
  simulation results (ops, latency samples, sim-time window) — the
  instrumentation reads the sim clock but never advances it.
* **Coverage**: the instrumented run actually produced spans for every
  measured operation (the overhead number is of a *working* recorder).

The *always-on* ring of the event log has no off switch to pair a wall
clock against; its <3% budget is held by the perf gate
(``scripts/check_ledger_exact.py``: ``obs.share_pct`` of the ledger's
profiled pass, with ``obs.calls_per_op`` as the exact early warning).
``test_flight_coverage`` here only checks that the ring sees the protocol.
"""

import time

import numpy as np
from conftest import run_once

from repro.cluster import Cluster
from repro.locks import make_lock
from repro.obs import ObsConfig
from repro.workload.runner import run_workload
from repro.workload.spec import WorkloadSpec

CONFIGS = {
    "off": None,
    "spans": ObsConfig(spans=True),
    "full": ObsConfig(spans=True, metrics=True),
}


def spec():
    return WorkloadSpec(
        n_nodes=5, threads_per_node=4, n_locks=20, locality_pct=90.0,
        ops_per_thread=30, cs_ns=500.0, seed=17, lock_kind="alock",
        audit="off")


def run_all():
    out = {}
    for name, obs in CONFIGS.items():
        t0 = time.perf_counter()
        res = run_workload(spec(), obs=obs)
        out[name] = (time.perf_counter() - t0, res)
    return out


def test_obs_overhead(benchmark):
    results = run_once(benchmark, run_all)
    base_s, base = results["off"]
    for name in ("spans", "full"):
        wall_s, res = results[name]
        benchmark.extra_info[f"{name}_overhead_pct"] = round(
            100.0 * (wall_s / base_s - 1.0), 1)
        # non-perturbation: identical simulation under instrumentation
        assert res.measured_ops == base.measured_ops
        assert res.window_ns == base.window_ns
        assert np.array_equal(np.asarray(res.latencies_ns),
                              np.asarray(base.latencies_ns))
    benchmark.extra_info["measured_ops"] = base.measured_ops
    # the off config records nothing; the instrumented ones record a
    # span tree covering every measured operation
    assert not base.spans
    full = results["full"][1]
    acquires = [s for s in full.spans
                if s.name == "lock.acquire" and s.attrs.get("outcome") == "ok"]
    assert len(acquires) >= full.measured_ops
    assert full.obs_metrics["network"]["verbs"]["rCAS"] > 0


def test_flight_coverage():
    """The ring is always on and actually sees the protocol."""
    cluster = Cluster(2, audit="off")
    lock = make_lock("alock", cluster, 0)
    ctx = cluster.thread_ctx(1, 0)  # remote cohort: exercises verbs too

    def proc():
        for _ in range(3):
            yield from lock.lock(ctx)
            yield from lock.unlock(ctx)

    cluster.env.process(proc())
    cluster.run()
    kinds = {e.kind for e in cluster.flight.window()}
    assert {"lock.acquired", "lock.released", "desc.begin",
            "verb.issue"} <= kinds
