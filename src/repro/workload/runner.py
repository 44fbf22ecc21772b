"""Closed-loop workload execution.

Builds the cluster and lock table from a :class:`WorkloadSpec`, spawns
one client process per (node, thread), runs the simulation, and collects
the :class:`RunResult`.

Count mode (``ops_per_thread > 0``) runs every client to completion —
within :func:`~repro.locktable.count_deadline_ns`, past which live
clients are a stall — and verifies the guarded counters when
``cs_counter`` is on.  Duration mode runs the clock to ``warmup_ns +
measure_ns`` and counts the operations that completed inside the
window — the paper's throughput methodology.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import Cluster
from repro.common.errors import SimulationError, VerbTimeout
from repro.locktable import DistributedLockTable, count_deadline_ns
from repro.obs import INTERVALS, RING, postmortem
from repro.workload.generator import LockPicker
from repro.workload.metrics import RunResult
from repro.workload.spec import WorkloadSpec


def build_cluster(spec: WorkloadSpec, **cluster_kwargs) -> tuple[Cluster, DistributedLockTable]:
    """Construct the cluster + lock table for a spec (exposed for tests
    and custom harnesses)."""
    cluster_kwargs.setdefault("faults", spec.faults)
    cluster = Cluster(spec.n_nodes, seed=spec.seed, audit=spec.audit,
                      **cluster_kwargs)
    lease_ns = spec.faults.lease_ns if spec.faults is not None else 0.0
    table = DistributedLockTable(cluster, spec.n_locks, spec.lock_kind,
                                 lock_options=spec.options_dict,
                                 lease_ns=lease_ns)
    return cluster, table


def run_workload(spec: WorkloadSpec, *, obs: int = RING,
                 **cluster_kwargs) -> RunResult:
    """Execute one workload run; deterministic for a given spec.

    Args:
        obs: the cluster's recording level (:mod:`repro.obs.log`).  At
            ``INTERVALS`` the result carries the run's spans, its
            metrics tree and how many events the log's capacity
            dropped; nothing the run measures depends on the level.

    The cluster is closed once the result or the post-mortem is built.
    """
    cluster, table = build_cluster(spec, obs=obs, **cluster_kwargs)
    try:
        return _run(spec, obs, cluster, table)
    finally:
        cluster.close()


def _run(spec: WorkloadSpec, obs: int, cluster: Cluster,
         table: DistributedLockTable) -> RunResult:
    """:func:`run_workload`'s run, on a built cluster."""
    env = cluster.env
    duration_mode = spec.ops_per_thread == 0
    window_start = spec.warmup_ns
    window_end = spec.warmup_ns + spec.measure_ns

    latencies: list[float] = []
    local_flags: list[bool] = []
    per_thread_ops: dict[tuple[int, int], int] = {}
    completed = {"ops": 0, "cs_increments": 0, "aborted_clients": 0,
                 "injected_cs_stalls": 0}
    injector = cluster.fault_injector

    def client(node: int, thread: int):
        ctx = cluster.thread_ctx(node, thread)
        picker = LockPicker(
            spec, node, thread,
            table.local_indices(node), table.remote_indices(node),
            cluster.rng.get("workload", node, thread))
        # Hot-loop hoists: the table/spec fields are immutable for the
        # run, and the leaseless path drives the lock generator directly,
        # saving the call in which table.acquire/release would only hand
        # that generator back.
        entries = table.entries
        leased = table.lease_ns > 0
        ops_cap = spec.ops_per_thread
        cs_counter = spec.cs_counter
        # floats: a process sleeps by yielding a float delay
        cs_ns, think_ns = float(spec.cs_ns), float(spec.think_ns)
        ops_done = 0
        while duration_mode or ops_done < ops_cap:
            idx = picker.next_lock()
            entry = entries[idx]
            is_local = entry.home_node == node
            start = env._now
            try:
                # A VerbTimeout below aborts this client *without* a
                # release: it models a crashed holder, which is exactly
                # the stall the locktable's lease monitor must detect
                # (degraded-entry reporting), so no cleanup by design.
                if leased:
                    yield from table.acquire(ctx, idx)
                else:
                    yield from entry.lock.lock(ctx)
                if injector is not None:
                    # Fault layer: the holder stalls inside its CS (GC
                    # pause, preemption) — what the lease monitor catches.
                    stall_ns = injector.holder_stall(node, thread)
                    if stall_ns > 0:
                        completed["injected_cs_stalls"] += 1
                        yield float(stall_ns)
                if cs_counter:
                    yield from table.guarded_increment(ctx, idx)
                    completed["cs_increments"] += 1
                if cs_ns > 0:
                    yield cs_ns
                yield from entry.lock.unlock(ctx)
            except VerbTimeout:
                # The lock's home partition stayed unreachable past the
                # retry budget (e.g. a long crash window): this client
                # cannot safely continue against that queue.  Record the
                # abort and retire; every other client keeps running.
                completed["aborted_clients"] += 1
                break
            end = env._now
            ops_done += 1
            completed["ops"] += 1
            if duration_mode:
                if window_start <= end < window_end:
                    latencies.append(end - start)
                    local_flags.append(is_local)
                    key = (node, thread)
                    per_thread_ops[key] = per_thread_ops.get(key, 0) + 1
                if end >= window_end:
                    break
            else:
                latencies.append(end - start)
                local_flags.append(is_local)
            if think_ns > 0:
                yield think_ns
        if not duration_mode:
            per_thread_ops[(node, thread)] = ops_done

    procs = []
    for node in range(spec.n_nodes):
        for thread in range(spec.threads_per_node):
            procs.append((node, thread, env.process(
                client(node, thread), name=f"client-n{node}t{thread}")))

    if duration_mode:
        env.run(until=window_end)
        # Clients that completed an op at/after window_end returned; any
        # still blocked mid-operation are simply abandoned with the run.
        measured = len(latencies)
        window = spec.measure_ns
    else:
        deadline = count_deadline_ns(
            spec.ops_per_thread * spec.total_threads, spec.total_threads,
            spec.cs_ns, spec.think_ns)
        # drain, not run(until=): the clock stays at the last event, so
        # a completed run reads as an unbounded one (window, NIC
        # utilizations).
        env.drain(deadline)
        stuck = [p for _n, _t, p in procs if p.is_alive]
        if stuck:
            # Clients parked with an empty schedule are a simulated
            # deadlock; clients alive with events still flowing at the
            # deadline (a poll for a hand-off that never comes) are a
            # stall.  describe_alive names the watched word of each
            # parked client (via the region label registry).
            drained = env.peek() == float("inf")
            what = ("deadlocked" if drained else
                    f"still running at the {deadline:.0f} ns deadline")
            raise postmortem.attach(
                SimulationError(
                    f"{len(stuck)}/{len(procs)} clients {what}: "
                    + env.describe_alive()),
                cluster, reason="deadlock" if drained else "stall",
                detail=env.describe_alive(), table=table)
        for node, thread, p in procs:
            if not p.ok:
                raise postmortem.attach(
                    SimulationError(
                        f"client n{node}t{thread} failed: {p.value!r}"),
                    cluster, reason="exception",
                    detail=f"client n{node}t{thread}: {p.value!r}",
                    table=table) from (
                        p.value if isinstance(p.value, BaseException) else None)
        measured = completed["ops"]
        window = env.now
        if spec.cs_counter:
            try:
                table.check_counters(completed["cs_increments"])
            except AssertionError as exc:
                raise postmortem.attach(exc, cluster, reason="checker",
                                        detail=str(exc), table=table)

    if spec.audit != "off":
        cluster.auditor.assert_clean()

    fault_stats: dict = {}
    if injector is not None:
        fault_stats = injector.stats()
        fault_stats.update(table.recovery_stats())
        fault_stats["aborted_clients"] = completed["aborted_clients"]
        fault_stats["injected_cs_stalls"] = completed["injected_cs_stalls"]

    spans: list = []
    obs_metrics: dict = {}
    dropped_events = 0
    if obs == INTERVALS:
        spans = cluster.obs.spans.spans()
        obs_metrics = cluster.obs.metrics.collect()
        dropped_events = cluster.log.dropped

    net_stats = cluster.network.stats()
    return RunResult(
        spec=spec,
        completed_ops=completed["ops"],
        measured_ops=measured,
        window_ns=window,
        latencies_ns=np.asarray(latencies, dtype=np.float64),
        local_mask=np.asarray(local_flags, dtype=bool),
        per_thread_ops=dict(per_thread_ops),
        atomicity_violations=cluster.auditor.violation_count,
        nic_stats=net_stats["nics"],
        verb_counts=net_stats["verbs"],
        loopback_verbs=net_stats["loopback_verbs"],
        fault_stats=fault_stats,
        spans=spans,
        obs_metrics=obs_metrics,
        dropped_events=dropped_events,
    )
