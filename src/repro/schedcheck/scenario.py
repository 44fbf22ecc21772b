"""Scenario builders: the workloads the explorer drives.

A *scenario* is a recipe that builds a fresh cluster + clients for every
schedule: exploration mutates nothing between runs, it only installs a
different tie-break policy on the new environment.  The standard
:class:`LockScenario` *is* the workload runner's count-mode client
(:func:`repro.workload.runner.spawn_clients`: acquire → CS dwell →
guarded increment → release against a lock table) on a coarse-timed,
protocol-traced cluster, with the knobs that matter for interleaving
coverage: per-client start stagger, critical-section dwell, think time,
and a deterministic lock-choice pattern in place of the seeded picker.

Anything with a ``build() -> BuiltRun`` method works as a scenario, so
tests can hand the explorer bespoke process soups too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.cluster import Cluster
from repro.common.errors import ConfigError
from repro.locktable import DistributedLockTable, count_deadline_ns
from repro.obs import PROTOCOL
from repro.rdma.config import CostModel, FabricConfig, NicConfig, RdmaConfig
from repro.sim.core import Process
from repro.workload.runner import spawn_clients, wire
from repro.workload.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan


#: the coarse cost model (see :func:`coarse_config`); frozen, so shared
_COARSE = RdmaConfig(
    nic=NicConfig(tx_service_ns=200.0, rx_service_ns=200.0,
                  atomic_window_ns=200.0, pcie_crossing_ns=100.0,
                  qpc_miss_penalty_ns=400.0,
                  loopback_turnaround_ns=1000.0),
    fabric=FabricConfig(one_way_latency_ns=800.0, jitter_ns=0.0),
    cpu=CostModel(local_read_ns=100.0, local_write_ns=200.0,
                  local_cas_ns=100.0, fence_ns=100.0,
                  spin_recheck_ns=100.0))


def coarse_config() -> RdmaConfig:
    """A tie-friendly cost model for schedule exploration (one shared
    frozen instance: every explored schedule builds a cluster on it).

    The calibrated CX-3 model uses deliberately unequal constants
    (55/60/95/... ns), so concurrent operations almost never finish at
    the same simulated instant and the tie-break tree the explorer
    permutes is tiny.  Exploration scenarios instead quantize every cost
    to a 100 ns grid: racing operations now *tie* exactly when a real
    machine would have them in flight together, which is what turns
    same-time reordering into genuine race coverage.  Ratios (remote ≈
    20× local) are preserved, so protocol behaviour is unchanged.
    """
    return _COARSE


@dataclass
class BuiltRun:
    """One freshly-built execution, ready to run under a policy; the
    verdict (:func:`repro.workload.runner.judge`) reads ``table`` and
    ``expected_ops``, the guarded increments its clients make."""

    cluster: Cluster
    processes: list[Process]
    table: Optional[DistributedLockTable] = None
    expected_ops: int = 0
    deadline_ns: float = 0.0


def _pick_single(node, thread, op, table):
    return 0


def _pick_local(node, thread, op, table):
    indices = table.local_indices(node)
    return indices[op % len(indices)]


def _pick_remote(node, thread, op, table):
    indices = table.remote_indices(node)
    return indices[(op + thread) % len(indices)]


def _pick_mixed(node, thread, op, table):
    if op % 2 == 0:
        return _pick_local(node, thread, op, table)
    return _pick_remote(node, thread, op, table)


PICKERS: dict[str, Callable] = {
    "single": _pick_single,
    "local": _pick_local,
    "remote": _pick_remote,
    "mixed": _pick_mixed,
}


@dataclass(frozen=True)
class LockScenario:
    """Closed-loop lock-table clients, one per (node, thread).

    Args:
        lock_kind: registered lock type ("alock", "mcs", "spinlock", ...).
        n_nodes / threads_per_node / n_locks / ops_per_thread: shape.
            ``n_locks`` must be >= 1; one below ``n_nodes`` is raised to
            ``n_nodes``, so every node homes a lock.
        pick: lock-choice pattern, one of ``single | local | remote |
            mixed`` (``single`` = everyone on lock 0: maximal logical
            contention and the densest tie-break choice points).
        cs_ns: dwell inside the critical section before the increment.
        think_ns: idle gap between operations.
        stagger_ns: client ``k`` starts at ``k * stagger_ns`` — breaks
            the time-0 symmetry when a scenario needs the default
            schedule to be quiet.
        lock_options: extra lock-factory options as a ``(("k", v), ...)``
            tuple (hashable; e.g. ``(("bug", "lost_wakeup"),)``).
        seed / audit: forwarded to the cluster.
        deadline_ns: sim-time budget; 0 derives a generous bound from
            the shape (:func:`repro.locktable.count_deadline_ns`).
            A run with live clients at the deadline is reported as a
            stall (livelock or starvation).
    """

    lock_kind: str = "alock"
    n_nodes: int = 2
    threads_per_node: int = 2
    n_locks: int = 1
    ops_per_thread: int = 4
    pick: str = "single"
    cs_ns: float = 0.0
    think_ns: float = 0.0
    stagger_ns: float = 0.0
    lock_options: tuple = ()
    seed: int = 0
    audit: str = "record"
    deadline_ns: float = 0.0
    #: quantized cost model (see :func:`coarse_config`); False runs the
    #: calibrated CX-3 model, where same-time ties are rare.
    coarse_time: bool = True
    #: optional fault schedule (verb loss, spikes, crash windows, ...);
    #: fault draws come from the cluster's seeded RNG registry, so a
    #: fault-enabled scenario replays exactly like a fault-free one —
    #: which is what lets the fleet explore interleavings *under*
    #: injected faults.
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.pick not in PICKERS:
            raise ConfigError(
                f"unknown picker {self.pick!r}; known: {sorted(PICKERS)}")
        if self.ops_per_thread < 1:
            raise ConfigError("ops_per_thread must be >= 1")
        if self.n_locks < 1:
            raise ConfigError(f"n_locks must be >= 1, got {self.n_locks}")
        if self.cs_ns < 0:
            raise ConfigError(f"cs_ns must be >= 0, got {self.cs_ns}")
        if self.think_ns < 0:
            raise ConfigError(f"think_ns must be >= 0, got {self.think_ns}")
        if self.stagger_ns < 0:
            raise ConfigError(f"stagger_ns must be >= 0, got {self.stagger_ns}")
        if self.deadline_ns < 0:
            raise ConfigError(
                f"deadline_ns must be >= 0, got {self.deadline_ns}")
        if self.pick in ("remote", "mixed") and self.n_nodes < 2:
            raise ConfigError(f"pick {self.pick!r} needs a remote lock, but "
                              f"with n_nodes={self.n_nodes} every lock is local")

    @property
    def expected_ops(self) -> int:
        return self.n_nodes * self.threads_per_node * self.ops_per_thread

    def build(self) -> BuiltRun:
        spec = WorkloadSpec(
            n_nodes=self.n_nodes, threads_per_node=self.threads_per_node,
            n_locks=max(self.n_locks, self.n_nodes),
            lock_kind=self.lock_kind, lock_options=self.lock_options,
            ops_per_thread=self.ops_per_thread, cs_ns=self.cs_ns,
            think_ns=self.think_ns, cs_counter=True, seed=self.seed,
            audit=self.audit, faults=self.faults,
            config=_COARSE if self.coarse_time else RdmaConfig())
        cluster, table = wire(spec, obs=PROTOCOL)
        processes, _tally = spawn_clients(
            spec, cluster, table, PICKERS[self.pick],
            stagger_ns=self.stagger_ns, abort_on_timeout=False)
        return BuiltRun(
            cluster=cluster, processes=processes, table=table,
            expected_ops=self.expected_ops,
            deadline_ns=self.deadline_ns or count_deadline_ns(
                self.expected_ops, spec.total_threads, self.cs_ns,
                self.think_ns, self.stagger_ns))


__all__ = ["BuiltRun", "LockScenario", "PICKERS"]
