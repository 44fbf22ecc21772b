"""repro.obs — deterministic observability for the simulated cluster.

One stream, three views, one registry:

* :mod:`repro.obs.log` — the cluster's protocol event log: every
  transition is reported once (``emit``), and one retention level fixed
  at construction decides what is kept;
* :mod:`repro.obs.flight`, :mod:`repro.obs.trace`,
  :mod:`repro.obs.spans` — the read-side views of that log: the
  always-on ring post-mortems freeze, the protocol trace the checkers
  read, and the span tree (``lock.acquire`` → ``peterson.compete`` →
  ``verb.rtt`` → ...) rebuilt by replaying begin/end events;
* :mod:`repro.obs.metrics` — sim-time histograms in a single queryable
  registry, plus pull-model collectors consolidating the NIC, verb and
  fault counters;
* :mod:`repro.obs.phases` — the lock-phase latency decomposition
  (queue-wait / cross-cohort / critical-section / release) built on the
  span tree;
* :mod:`repro.obs.export` — Chrome/Perfetto trace-event JSON and flat
  metrics JSON, byte-deterministic across ``PYTHONHASHSEED``.

Everything is keyed to the simulated clock; nothing here reads wall
time or perturbs the simulation, whatever the level.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class ObsConfig:
    """What to record beyond the always-on ring: timed intervals (the
    span tree) and/or pushed metrics."""

    spans: bool = False
    metrics: bool = False

    @property
    def any_enabled(self) -> bool:
        return self.spans or self.metrics


#: convenience presets
OBS_OFF = ObsConfig()
OBS_FULL = ObsConfig(spans=True, metrics=True)


class Observability:
    """Per-cluster bundle: the event log, its three views, and the
    metrics registry.  ``trace`` asks for the protocol level; the log's
    level is the highest one asked for."""

    def __init__(self, env: Environment, config: ObsConfig = OBS_OFF,
                 trace: bool = False):
        self.config = config
        self.log = EventLog(
            env, INTERVALS if config.spans else PROTOCOL if trace else RING)
        self.flight = RingView(self.log)
        self.tracer = TraceView(self.log)
        self.spans = SpanView(self.log)
        self.metrics = MetricsRegistry(enabled=config.metrics)

    @property
    def enabled(self) -> bool:
        """Is anything beyond the ring/trace being collected?"""
        return self.config.any_enabled


__all__ = [
    "COHORT_HANDOVER", "FAULT_RETRY", "LOCK_ACQUIRE", "LOCK_RELEASE",
    "MCS_QUEUE_WAIT", "PETERSON_COMPETE", "VERB_RTT",
    "Histogram", "MetricsRegistry",
    "ObsConfig", "OBS_OFF", "OBS_FULL", "Observability",
    "EventLog", "RingView", "Span", "SpanView", "TraceEvent", "TraceView",
]
