"""Shared test-suite plumbing: cluster/lock setup used across packages.

Three families of helpers that used to be copied between
``tests/locks/helpers.py``, ``tests/integration/test_end_to_end.py`` and
``tests/workload/*``:

* lock **pickers** — deterministic ``(node, thread, op, table) -> index``
  strategies for choosing which lock an operation targets;
* the closed-loop **client harness** — build a cluster + lock table,
  spawn one generator client per (node, thread), run to completion and
  assert every client finished cleanly;
* the canonical **small workload spec** — the 2×2 shape most workload
  tests start from.

Plus ``profiling``, the profiler hook the frame and heap-op guards
count under, and ``refcounted_runs``, the guard that a finished run
leaves no cyclic garbage.

Import directly (``from tests.conftest import run_lock_clients``) or via
the back-compat re-exports in ``tests.locks.helpers``.

One fixture lives here too: ``smoke_figure``, each experiment at smoke
scale, simulated once per session for every test that reads it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import gc
import json
import sys
import types
import weakref

import pytest

from repro.cluster import Cluster
from repro.locktable import DistributedLockTable


# ---------------------------------------------------------------- pickers

def always_local(node, thread, op, table):
    """Pick a lock homed on the caller's node (round-robins its partition)."""
    indices = table.local_indices(node)
    return indices[op % len(indices)]


def always_remote(node, thread, op, table):
    """Pick a lock homed on some other node."""
    indices = table.remote_indices(node)
    return indices[(op + thread) % len(indices)]


def single_lock(node, thread, op, table):
    """Everyone hammers lock 0 — maximum logical contention."""
    return 0


def mixed_locality(node, thread, op, table):
    """Alternate local and remote targets deterministically."""
    if op % 2 == 0:
        return always_local(node, thread, op, table)
    return always_remote(node, thread, op, table)


# --------------------------------------------------- closed-loop harness

def make_cluster_and_table(lock_kind: str, *, n_nodes: int, n_locks: int,
                           lock_options: dict | None = None, seed: int = 1234,
                           audit: str = "record", **cluster_kw):
    """One cluster plus a lock table over it — the standard rig."""
    cluster = Cluster(n_nodes, seed=seed, audit=audit, **cluster_kw)
    table = DistributedLockTable(cluster, n_locks, lock_kind,
                                 lock_options=lock_options)
    return cluster, table


def run_lock_clients(cluster, table, *, threads_per_node: int,
                     ops_per_thread: int, pick_lock) -> int:
    """Spawn one acquire→guarded-increment→release client per
    (node, thread), run the cluster to completion, and assert every
    client finished without an exception.  Returns completed op count."""
    completed = {"ops": 0}

    def client(node: int, thread: int):
        ctx = cluster.thread_ctx(node, thread)
        for op in range(ops_per_thread):
            idx = pick_lock(node, thread, op, table)
            yield from table.acquire(ctx, idx)
            yield from table.guarded_increment(ctx, idx)
            yield from table.release(ctx, idx)
            completed["ops"] += 1

    procs = []
    for node in range(cluster.n_nodes):
        for thread in range(threads_per_node):
            procs.append(cluster.env.process(client(node, thread),
                                             name=f"client-n{node}t{thread}"))
    cluster.run()
    for p in procs:
        assert p.ok, f"client failed: {p.value!r}"
    return completed["ops"]


# ----------------------------------------------------- workload baseline

def small_workload_spec(**over):
    """The 2-node, 2-thread, 4-lock workload most tests start from."""
    from repro.workload import WorkloadSpec

    base = dict(n_nodes=2, threads_per_node=2, n_locks=4, locality_pct=100.0,
                lock_kind="alock", ops_per_thread=10, seed=3, audit="record")
    base.update(over)
    return WorkloadSpec(**base)


# ------------------------------------------------------ profiler guards

class profiling:
    """Install ``profiler`` with ``sys.setprofile`` while the block runs,
    with the cyclic collector off: a collection inside the block would
    finalize suspended generators left by earlier tests, and each close
    is a generator ``call`` event the guard did not cause.  A class, not
    a ``contextmanager``, so leaving the block resumes no generator."""

    def __init__(self, profiler):
        self.profiler = profiler

    def __enter__(self):
        gc.collect()
        self.gc_was_enabled = gc.isenabled()
        gc.disable()
        sys.setprofile(self.profiler)

    def __exit__(self, *exc):
        sys.setprofile(None)
        if self.gc_was_enabled:
            gc.enable()


@contextlib.contextmanager
def refcounted_runs():
    """Run the block with the cyclic collector off and check, on
    leaving, that every cluster it closed is already gone and that a
    collection finds nothing: a finished run is freed by reference
    counting alone.

    Yields the list of closed clusters, one record each taken as
    :meth:`Cluster.close` starts: ``alive`` — the names of the processes
    still running — and ``in_flight`` — verbs sent and not yet
    received, inside RX or queued for it.  Warm the imports up first
    (one run of the same kind): a first-time import leaves cycles of
    its own."""
    closed: list = []
    close = Cluster.close

    def recording_close(cluster):
        nics = cluster.network.nics
        closed.append(types.SimpleNamespace(
            ref=weakref.ref(cluster),
            alive=[p.name for p in cluster.env.alive_processes()],
            in_flight=sum(n.tx_ops - n.rx_ops + n.rx.in_use
                          + n.rx.queue_length for n in nics)))
        close(cluster)

    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    Cluster.close = recording_close
    try:
        yield closed
        assert closed, "the block closed no cluster"
        assert [c.ref() for c in closed] == [None] * len(closed)
        assert gc.collect() == 0
    finally:
        Cluster.close = close
        if gc_was_enabled:
            gc.enable()


# ------------------------------------------------------- shared figures

@contextlib.contextmanager
def recorded_fanout():
    """What an experiment hands its runner while the block runs:
    ``calls`` — the ``(specs, workers)`` of every ``run_specs`` fan-out
    as it reaches ``pmap_workloads`` — and ``runs``, every workload this
    process simulated, fanned out or not (``run_workload`` builds its
    cluster through the patched name however it was imported)."""
    from repro.experiments import base
    from repro.workload import runner

    record = types.SimpleNamespace(calls=[], runs=0)
    pmap_workloads, build_cluster = base.pmap_workloads, runner.build_cluster

    def recording_pmap(specs, *, workers, **kwargs):
        record.calls.append((list(specs), workers))
        return pmap_workloads(specs, workers=workers, **kwargs)

    def counting_build(spec, **cluster_kwargs):
        record.runs += 1
        return build_cluster(spec, **cluster_kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(base, "pmap_workloads", recording_pmap)
        patch.setattr(runner, "build_cluster", counting_build)
        yield record


@pytest.fixture(scope="session")
def smoke_figure():
    """``smoke_figure("fig5")``: the serial smoke-scale run of one
    experiment at seed 0, simulated once per session for every reader
    (the smoke classes, the serial leg of the parallel-parity test);
    ``smoke_figure.fanout["fig5"]`` is what :func:`recorded_fanout` saw
    of that run.  Where the hash-seed test pins a golden digest the run
    is held to it, at this process's own hash seed."""
    from repro.experiments import run_experiment
    from tests.ci.test_hashseed_identity import GOLDEN_FIG

    golden = dict(line.split() for line in GOLDEN_FIG.splitlines())

    @functools.cache
    def run(experiment_id: str):
        with recorded_fanout() as record:
            result = run_experiment(experiment_id, scale="smoke", seed=0)
        run.fanout[experiment_id] = record
        if experiment_id in golden:
            digest = hashlib.blake2b(
                json.dumps(result.rows, sort_keys=True).encode(),
                digest_size=16).hexdigest()
            assert digest == golden[experiment_id], (
                f"{experiment_id} smoke rows moved: {digest}")
        return result

    run.fanout = {}
    return run
