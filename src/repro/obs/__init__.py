"""repro.obs — deterministic observability for the simulated cluster.

One stream at one recording level, its read-side views, one registry:

* :mod:`repro.obs.log` — the cluster's protocol event log: every
  transition is reported once (``emit``), and one retention level fixed
  at construction (``Cluster(obs=...)``: :data:`RING`, :data:`PROTOCOL`
  or :data:`INTERVALS`) decides what is kept;
* :mod:`repro.obs.flight`, :mod:`repro.obs.trace`,
  :mod:`repro.obs.spans` — the read-side views of that log: the
  always-on ring post-mortems freeze, the protocol trace the checkers
  read, and the span tree (``lock.acquire`` → ``peterson.compete`` →
  ``verb.rtt`` → ...) rebuilt by replaying begin/end events;
* :mod:`repro.obs.metrics` — one queryable registry: the sim-time
  duration histograms (a fourth view of the log, at ``INTERVALS``) plus
  pull-model collectors consolidating the NIC, verb and fault counters;
* :mod:`repro.obs.phases` — the lock-phase latency decomposition
  (queue-wait / cross-cohort / critical-section / release) built on the
  span tree;
* :mod:`repro.obs.export` — Chrome/Perfetto trace-event JSON and flat
  metrics JSON, byte-deterministic across ``PYTHONHASHSEED``.

Everything is keyed to the simulated clock; nothing here reads wall
time or perturbs the simulation, whatever the level.
"""

from __future__ import annotations

from repro.obs.flight import RingView
from repro.obs.log import INTERVALS, PROTOCOL, RING, EventLog
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.spans import (
    COHORT_HANDOVER,
    FAULT_RETRY,
    LOCK_ACQUIRE,
    LOCK_RELEASE,
    MCS_QUEUE_WAIT,
    PETERSON_COMPETE,
    VERB_RTT,
    Span,
    SpanView,
)
from repro.obs.trace import TraceEvent, TraceView
from repro.sim.core import Environment


class Observability:
    """Per-cluster bundle: the event log at one recording ``level``
    (:data:`RING`, :data:`PROTOCOL` or :data:`INTERVALS`), its views,
    and the metrics registry."""

    def __init__(self, env: Environment, level: int = RING):
        self.log = EventLog(env, level)
        self.flight = RingView(self.log)
        self.tracer = TraceView(self.log)
        self.spans = SpanView(self.log)
        self.metrics = MetricsRegistry(self.spans if level == INTERVALS else None)


__all__ = [
    "COHORT_HANDOVER", "FAULT_RETRY", "LOCK_ACQUIRE", "LOCK_RELEASE",
    "MCS_QUEUE_WAIT", "PETERSON_COMPETE", "VERB_RTT",
    "INTERVALS", "PROTOCOL", "RING",
    "Histogram", "MetricsRegistry", "Observability",
    "EventLog", "RingView", "Span", "SpanView", "TraceEvent", "TraceView",
]
