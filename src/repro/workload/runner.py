"""Closed-loop workload execution.

Builds the cluster and lock table from a :class:`WorkloadSpec`, spawns
one client process per (node, thread), runs the simulation, and collects
the :class:`RunResult`.  Schedcheck shares its one lock client
(:func:`spawn_clients`) and count-mode verdict (:func:`run_clients`).

Count mode (``ops_per_thread > 0``) runs every client to completion —
within :func:`~repro.locktable.count_deadline_ns`, past which live
clients are a stall — and verifies the guarded counters when
``cs_counter`` is on.  Duration mode runs the clock to ``warmup_ns +
measure_ns`` and counts the operations that completed inside the
window — the paper's throughput methodology.
"""

from __future__ import annotations

from functools import partial
from itertools import count, repeat

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


# A harness may rebind build_cluster (run_workload looks it up when it
# runs) to observe each run's cluster; a scenario builds through this.
wire = build_cluster


def spawn_clients(spec: WorkloadSpec, cluster: Cluster,
                  table: DistributedLockTable, pick=None, *,
                  stagger_ns: float = 0.0, abort_on_timeout: bool = True):
    """Start one closed-loop client per (node, thread), named
    ``client-n{node}t{thread}`` and created node-major; return them and
    the dict their counts and samples go to.  An operation: acquire, the
    fault layer's holder stall, ``cs_ns`` dwell, guarded increment (with
    ``cs_counter``), release, ``think_ns``.  ``pick(node, thread, op,
    table)`` chooses each lock (default: the spec's seeded
    :class:`LockPicker`); client ``k`` starts ``k * stagger_ns`` late;
    ``abort_on_timeout=False`` lets a :class:`VerbTimeout` kill its
    client instead of retiring it."""
    env = cluster.env
    duration_mode = spec.ops_per_thread == 0
    window_start, window_end = spec.warmup_ns, spec.warmup_ns + spec.measure_ns
    tally = {"ops": 0, "cs_increments": 0, "aborted_clients": 0,
             "injected_cs_stalls": 0, "latencies": [], "local_flags": [],
             "per_thread_ops": {}}
    latencies, local_flags = tally["latencies"], tally["local_flags"]
    per_thread_ops = tally["per_thread_ops"]
    injector = cluster.fault_injector

    def client(node: int, thread: int, delay: float):
        ctx = cluster.thread_ctx(node, thread)
        if pick is None:
            next_lock = LockPicker(
                spec, node, thread,
                table.local_indices(node), table.remote_indices(node),
                cluster.rng.get("workload", node, thread)).next_lock
        else:  # pick(node, thread, op, table) for op = 0, 1, 2, ...
            next_lock = map(partial(pick, node, thread), count(),
                            repeat(table)).__next__
        if delay > 0:
            yield delay
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
            idx = next_lock()
            entry = entries[idx]
            is_local = entry.home_node == node
            start = env._now
            try:
                # No try/finally release: a client that dies or aborts
                # mid-CS LEAVES the lock held, as a crashed holder would
                # (the stall the lease monitor must detect); cleanup
                # would mask the failure.
                if leased:
                    yield from table.acquire(ctx, idx)
                else:
                    yield from entry.lock.lock(ctx)
                if injector is not None:
                    # Fault layer: the holder stalls inside its CS (GC
                    # pause, preemption) — what the lease monitor catches.
                    stall_ns = injector.holder_stall(node, thread)
                    if stall_ns > 0:
                        tally["injected_cs_stalls"] += 1
                        yield float(stall_ns)
                if cs_ns > 0:
                    yield cs_ns
                if cs_counter:
                    yield from table.guarded_increment(ctx, idx)
                    tally["cs_increments"] += 1
                yield from entry.lock.unlock(ctx)
            except VerbTimeout:
                # The lock's home partition stayed unreachable past the
                # retry budget (e.g. a long crash window): this client
                # cannot safely continue against that queue.  Record the
                # abort and retire; every other client keeps running.
                if not abort_on_timeout:
                    raise
                tally["aborted_clients"] += 1
                break
            end = env._now
            ops_done += 1
            tally["ops"] += 1
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
            procs.append(env.process(
                client(node, thread, len(procs) * float(stagger_ns)),
                name=f"client-n{node}t{thread}"))
    return procs, tally


def run_clients(env, processes, deadline_ns: float):
    """Run count-mode clients within ``deadline_ns``, leaving the clock at
    the makespan, and judge them: ``None`` if all finished, else ``(kind,
    detail, error)`` — a dead client first (``"exception"``), then live
    ones parked with an empty schedule (``"deadlock"``) or with events
    still flowing (``"stall"``)."""
    env.drain(deadline_ns)
    failed = [p for p in processes if p.triggered and not p.ok]
    if failed:
        p, more = failed[0], len(failed) - 1
        return ("exception", f"{p.name} died: {type(p.value).__name__}: "
                f"{p.value}" + (f" (+{more} more)" if more else ""), p.value)
    alive = [p for p in processes if p.is_alive]
    if not alive:
        return None
    drained = env.peek() == float("inf")
    what = ("parked with an empty schedule" if drained
            else f"still running at the {deadline_ns:.0f} ns deadline")
    return ("deadlock" if drained else "stall",
            f"{len(alive)}/{len(processes)} clients {what}: "
            + env.describe_alive(), None)


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
        env = cluster.env
        procs, tally = spawn_clients(spec, cluster, table)
        if spec.ops_per_thread == 0:
            env.run(until=spec.warmup_ns + spec.measure_ns)
            # Clients that completed an op at/after the window's end
            # returned; any still blocked mid-operation are abandoned.
            measured = len(tally["latencies"])
            window = spec.measure_ns
        else:
            deadline = count_deadline_ns(
                spec.ops_per_thread * spec.total_threads, spec.total_threads,
                spec.cs_ns, spec.think_ns)
            # The clock stays at the last event, so a completed run reads
            # as an unbounded one (window, NIC utilizations).
            verdict = run_clients(env, procs, deadline)
            if verdict is not None:
                kind, detail, error = verdict
                raise postmortem.attach(
                    SimulationError(detail), cluster, reason=kind,
                    detail=detail, table=table) from error
            measured = tally["ops"]
            window = env.now
            if spec.cs_counter:
                try:
                    table.check_counters(tally["cs_increments"])
                except AssertionError as exc:
                    raise postmortem.attach(exc, cluster, reason="checker",
                                            detail=str(exc), table=table)

        if spec.audit != "off":
            cluster.auditor.assert_clean()

        fault_stats: dict = {}
        injector = cluster.fault_injector
        if injector is not None:
            fault_stats = injector.stats()
            fault_stats.update(table.recovery_stats())
            fault_stats["aborted_clients"] = tally["aborted_clients"]
            fault_stats["injected_cs_stalls"] = tally["injected_cs_stalls"]

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
            completed_ops=tally["ops"],
            measured_ops=measured,
            window_ns=window,
            latencies_ns=np.asarray(tally["latencies"], dtype=np.float64),
            local_mask=np.asarray(tally["local_flags"], dtype=bool),
            per_thread_ops=dict(tally["per_thread_ops"]),
            atomicity_violations=cluster.auditor.violation_count,
            nic_stats=net_stats["nics"],
            verb_counts=net_stats["verbs"],
            loopback_verbs=net_stats["loopback_verbs"],
            fault_stats=fault_stats,
            spans=spans,
            obs_metrics=obs_metrics,
            dropped_events=dropped_events,
        )
    finally:
        cluster.close()
