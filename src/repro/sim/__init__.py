"""Deterministic discrete-event simulation engine.

A purpose-built, simpy-flavoured kernel: processes are Python generators
that ``yield`` events — or a float delay in nanoseconds, to simply let
time pass; the environment advances a virtual clock in nanoseconds.  Determinism is guaranteed by a total order on scheduled
events ``(time, seq)`` where ``seq`` is a monotonically increasing
insertion counter — two runs with the same seed produce identical
trajectories.

Public surface:

* :class:`Environment` — the event loop / clock.
* :class:`Event`, :class:`Timeout`, :class:`Process` — awaitables.
* :class:`AnyOf`, :class:`AllOf` — event combinators.
* :class:`Resource` — evented FIFO server pool with utilization
  accounting (models the NIC RX pipeline and the RPC server CPU).
* :class:`Pipeline` — the same FIFO for a stage whose service time is
  known on arrival: departures are computed, not queued (NIC TX, PCIe).
* :class:`Store` — FIFO message channel.
* :class:`Interrupt` — cooperative cancellation.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    PENDING,
    Process,
    Timeout,
    core_info,
)
from repro.sim.resources import Pipeline, Resource, Store

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "PENDING",
    "Resource",
    "Pipeline",
    "Store",
    "core_info",
]
