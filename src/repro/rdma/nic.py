"""The RNIC model: TX/RX pipelines, PCIe, QPC cache, congestion.

An :class:`Rnic` is the *state* of one node's NIC — three FIFO stages
(the TX pipeline and the PCIe bus, whose service time is known on
arrival and whose departures are therefore computed; the RX pipeline,
an evented queue), the QP-context cache (which owns the reload penalty,
:meth:`~repro.rdma.qp.QpcCache.touch`), the cached cost parameters and
the op counters.  It has no per-op method of its own: the *path* an op
takes through two NICs, including the congestion-inflated RX service
time, is stated once, in :meth:`repro.rdma.network.RdmaNetwork._round_trip`,
which reads this state directly — one flat call per stage crossing:

* **send side** — one PCIe crossing (WQE fetch via doorbell + DMA) then
  the TX pipeline for ``tx_service_ns`` (plus a QPC reload on a miss).
* **receive side** — the RX pipeline, whose effective service time
  inflates with the backlog queued behind the op when it reaches the
  head of the queue (RX-buffer accumulation under PCIe backpressure,
  the Fig. 1 mechanism), then one PCIe crossing to execute the DMA
  against host memory.  Remote atomics additionally hold the RX
  pipeline for the ``atomic_window_ns`` read→write-back window, which
  serializes them against each other at the target.
* **completion** — one PCIe crossing on the requester side when the ACK
  arrives.

A loopback op (§2) runs the send side and receive side on the *same*
NIC, skipping the fabric but paying an internal turnaround — so loopback
traffic occupies both pipelines and three PCIe crossings per op, which
is why it saturates a node long before real network traffic would.
"""

from __future__ import annotations

from repro.rdma.config import NicConfig
from repro.rdma.qp import QpcCache
from repro.sim.core import Environment
from repro.sim.resources import Pipeline, Resource


class Rnic:
    """One node's RDMA NIC."""

    __slots__ = ("env", "node_id", "config", "tx", "rx", "pcie", "qpc",
                 "tx_ops", "rx_ops", "loopback_ops",
                 "_pcie_crossing_ns", "_tx_service_ns", "_rx_service_ns",
                 "_rx_congestion_threshold", "_rx_congestion_factor",
                 "_rx_congestion_max_factor", "_loopback_turnaround_ns",
                 "_atomic_window_ns")

    def __init__(self, env: Environment, node_id: int, config: NicConfig):
        self.env = env
        self.node_id = node_id
        self.config = config
        self.tx = Pipeline(env, 1, name=f"nic{node_id}.tx")
        self.rx = Resource(env, 1, name=f"nic{node_id}.rx")
        self.pcie = Pipeline(env, config.pcie_lanes, name=f"nic{node_id}.pcie")
        self.qpc = QpcCache(config.qpc_cache_entries,
                            config.qpc_miss_penalty_ns)
        # Per-op latency parameters, cached off the config object: the
        # config is immutable for the lifetime of the NIC and these are
        # read on every verb, where the chained attribute lookups show up
        # in engine profiles.  Durations are coerced to float here, once:
        # a process sleeps by yielding a float (repro.sim.core).
        self._pcie_crossing_ns = float(config.pcie_crossing_ns)
        self._tx_service_ns = float(config.tx_service_ns)
        self._rx_service_ns = float(config.rx_service_ns)
        self._rx_congestion_threshold = config.rx_congestion_threshold
        self._rx_congestion_factor = config.rx_congestion_factor
        self._rx_congestion_max_factor = config.rx_congestion_max_factor
        self._loopback_turnaround_ns = float(config.loopback_turnaround_ns)
        self._atomic_window_ns = float(config.atomic_window_ns)
        # statistics
        self.tx_ops = 0
        self.rx_ops = 0
        self.loopback_ops = 0

    # -- reporting -----------------------------------------------------
    def stats(self) -> dict:
        return {
            "node": self.node_id,
            "tx_ops": self.tx_ops,
            "rx_ops": self.rx_ops,
            "loopback_ops": self.loopback_ops,
            "tx_utilization": self.tx.utilization(),
            "rx_utilization": self.rx.utilization(),
            "pcie_utilization": self.pcie.utilization(),
            "rx_peak_queue": self.rx.peak_queue,
            "qpc_miss_rate": self.qpc.miss_rate,
            "qpc_penalty_ns_total": self.qpc.penalty_ns_total,
        }
