"""Cluster construction: nodes, regions, NICs, fabric, shared services.

The :class:`Cluster` is the root object every experiment builds first.
It mirrors the paper's testbed shape: ``n`` identical nodes, each with
one RNIC and one slab of RDMA-registered memory, connected by a uniform
fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigError
from repro.common.rng import RngStreams
from repro.faults import FaultInjector, FaultPlan
from repro.memory.pointer import MAX_NODES
from repro.memory.races import RaceAuditor
from repro.memory.region import MemoryRegion
from repro.obs import RING, Observability
from repro.obs.log import LEVELS
from repro.rdma.config import RdmaConfig
from repro.rdma.network import RdmaNetwork
from repro.sim.core import Environment

#: Default per-node slab: enough for thousands of locks + descriptors.
DEFAULT_REGION_BYTES = 4 << 20


@dataclass
class Node:
    """One machine: id, its memory slab, and a view of its NIC."""

    node_id: int
    region: MemoryRegion

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Node {self.node_id}>"


class Cluster:
    """An ``n``-node RDMA cluster simulation.

    Args:
        n_nodes: number of machines (1..32 with the default pointer width).
        config: cost-model bundle; defaults to the CX-3 calibration.
        region_bytes: RDMA slab size per node.
        seed: root seed for all derived RNG streams.
        audit: Table-1 race auditing mode (``"off"``/``"record"``/``"strict"``).
        faults: optional :class:`~repro.faults.FaultPlan`; an *active*
            plan arms the verb-path retransmission harness and the fault
            injector (seeded from this cluster's RNG registry, so fault
            schedules replay exactly).  ``None`` or an inactive plan
            keeps the fault-free code path.
        obs: the event log's recording level — ``RING`` (the default),
            ``PROTOCOL`` (the protocol steps ``cluster.tracer`` shows, for
            walkthroughs and schedcheck scenarios) or ``INTERVALS`` (the
            timed intervals of the span tree and its duration
            histograms), from :mod:`repro.obs.log`.  The metrics
            registry's pull-model collectors (NIC/verb/fault counters)
            are wired at every level, so ``cluster.obs.metrics.collect()``
            always works.

    Every cluster has one protocol event log (:mod:`repro.obs.log`);
    ``obs`` only raises what it keeps above the always-on ring.
    ``cluster.flight``, ``cluster.tracer``, ``cluster.obs.spans`` and
    the registry's histograms are its read-side views.
    """

    def __init__(self, n_nodes: int, *, config: Optional[RdmaConfig] = None,
                 region_bytes: int = DEFAULT_REGION_BYTES, seed: int = 0,
                 audit: str = "record", faults: Optional[FaultPlan] = None,
                 obs: int = RING):
        if not 1 <= n_nodes <= MAX_NODES:
            raise ConfigError(f"n_nodes must be in [1, {MAX_NODES}], got {n_nodes}")
        if faults is not None and not isinstance(faults, FaultPlan):
            raise ConfigError(f"faults must be a FaultPlan, got {faults!r}")
        if obs not in LEVELS or isinstance(obs, bool):
            raise ConfigError(f"obs must be a recording level {LEVELS} "
                              f"(RING, PROTOCOL, INTERVALS), got {obs!r}")
        self.env = Environment()
        self.config = config or RdmaConfig()
        self.rng = RngStreams(seed)
        self.auditor = RaceAuditor(mode=audit)
        # With auditing off the word and RMW paths are handed no auditor
        # at all, so they skip the call instead of making it to have it
        # return at once; the cluster keeps the (idle) object for
        # reporting — violation_count stays 0.
        live_auditor = self.auditor if audit != "off" else None
        self.obs = Observability(self.env, obs)
        self.log = self.obs.log
        self.flight = self.obs.flight
        self.tracer = self.obs.tracer
        # the engine reports schedule tie-breaks (policy runs only)
        self.env.emit = self.log.emit
        self.fault_plan = faults
        self.fault_injector = (
            FaultInjector(faults, self.rng.fork("faults"), emit=self.log.emit)
            if faults is not None and faults.active else None)
        self.regions = [
            MemoryRegion(self.env, i, region_bytes, auditor=live_auditor)
            for i in range(n_nodes)
        ]
        # Streams are keyed, so asking for the jitter stream only when a
        # config reads it moves no other stream.
        self.network = RdmaNetwork(
            self.env, self.config, self.regions, auditor=live_auditor,
            jitter_rng=(self.rng.get("fabric-jitter")
                        if self.config.fabric.jitter_ns > 0 else None),
            injector=self.fault_injector, obs=self.obs)
        self.nodes = [Node(i, self.regions[i]) for i in range(n_nodes)]
        self._contexts: dict[tuple[int, int], "ThreadContext"] = {}
        self._register_collectors()

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def thread_ctx(self, node_id: int, thread_id: int) -> "ThreadContext":
        """The (cached) execution context for thread ``t_node^thread``."""
        from repro.cluster.context import ThreadContext

        if not 0 <= node_id < self.n_nodes:
            raise ConfigError(f"node {node_id} out of range for {self.n_nodes}-node cluster")
        key = (node_id, thread_id)
        ctx = self._contexts.get(key)
        if ctx is None:
            ctx = ThreadContext(self, node_id, thread_id)
            self._contexts[key] = ctx
        return ctx

    def alloc_on(self, node_id: int, nbytes: int, align: int = 64) -> int:
        """Allocate RDMA memory on ``node_id``; returns a packed pointer."""
        return self.regions[node_id].alloc_ptr(nbytes, align)

    def run(self, until=None):
        """Advance the simulation (delegates to the environment)."""
        return self.env.run(until)

    def close(self) -> None:
        """End the run and unlink its reference cycles; readers see the
        same (DESIGN.md decision 21).  A hand-built cluster run in a
        loop should call it, as ``run_workload`` and ``run_schedule`` do."""
        self.env.close()
        for ctx in self._contexts.values():
            ctx.cluster = None
            ctx._alock_descriptors = ctx._mcs_descriptor = None

    def _register_collectors(self) -> None:
        """Consolidate the scattered subsystem counters into the metrics
        registry's pull side.  ``stats()`` and ``metrics.collect()`` are
        views of the same tree."""
        # the collectors close over what they read: one over self is a cycle
        reg = self.obs.metrics
        regions, auditor, contexts = self.regions, self.auditor, self._contexts
        reg.add_collector("network", self.network.stats)
        reg.add_collector("memory", lambda: [
            {
                "node": r.node_id,
                "local_reads": r.local_reads,
                "local_writes": r.local_writes,
                "local_rmws": r.local_rmws,
                "remote_ops_landed": r.remote_ops_landed,
                "bytes_allocated": r.bytes_allocated,
            }
            for r in regions
        ])
        reg.add_collector("atomicity_violations",
                          lambda: auditor.violation_count)
        reg.add_collector("threads", lambda: [
            {
                "node": node_id,
                "thread": thread_id,
                "local_ops": ctx.local_op_count,
                "remote_ops": ctx.remote_op_count,
                "verb_timeouts": ctx.verb_timeouts,
            }
            for (node_id, thread_id), ctx in sorted(contexts.items())
        ])

    def stats(self) -> dict:
        """Cluster-wide counters: verbs, NICs, memory, audit results.

        A subset view of :meth:`repro.obs.metrics.MetricsRegistry.collect`
        (kept for backwards compatibility — the registry tree adds
        per-thread counters and, at ``INTERVALS``, the duration
        histograms)."""
        tree = self.obs.metrics.collect()
        return {
            "network": tree["network"],
            "memory": tree["memory"],
            "atomicity_violations": tree["atomicity_violations"],
        }
