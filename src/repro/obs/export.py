"""Exporters: Chrome/Perfetto trace-event JSON and flat metrics JSON.

The trace format is the Chrome ``trace_event`` JSON array-of-objects
format (``{"traceEvents": [...]}``), which https://ui.perfetto.dev and
``chrome://tracing`` both load directly.  Each finished span becomes a
complete event (``"ph": "X"``); timestamps are microseconds, so sim-ns
divide by 1e3.  Each exported run becomes one "process" (pid), each
actor one "thread" (tid), named via metadata events.  A run whose log
outgrew its capacity also names, in its process metadata and its
metrics entry, how many events it dropped (``dropped_events``); a
complete run's bytes carry no such key.

Byte determinism: every dict is serialised with ``sort_keys=True``,
events are emitted in ``(pid, tid, ts, span_id)`` order, and tids are
assigned from *sorted* actor names — so the output is identical across
``PYTHONHASHSEED`` values and across runs (the gate test hashes it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.metrics import flatten
from repro.obs.spans import Span


@dataclass
class CapturedRun:
    """Spans + metrics snapshot of one cluster run, labelled for export;
    ``dropped`` is its log's :attr:`~repro.obs.log.EventLog.dropped`."""

    label: str
    spans: list[Span] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    dropped: int = 0


def _dropped(run) -> dict:
    return {"dropped_events": run.dropped} if run.dropped else {}


def trace_events(runs: Sequence[CapturedRun]) -> list[dict]:
    """Flatten runs into a Chrome trace-event list."""
    events: list[dict] = []
    for pid, run in enumerate(runs, start=1):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": run.label, **_dropped(run)}})
        actors = sorted({s.actor for s in run.spans})
        tids = {actor: i for i, actor in enumerate(actors, start=1)}
        for actor in actors:
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tids[actor], "args": {"name": actor}})
        spans = sorted((s for s in run.spans if s.finished),
                       key=lambda s: (tids[s.actor], s.start_ns, s.span_id))
        for s in spans:
            args = {"span_id": s.span_id, "parent_id": s.parent_id}
            args.update(s.attrs)
            events.append({
                "ph": "X",
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "pid": pid,
                "tid": tids[s.actor],
                "ts": s.start_ns / 1e3,
                "dur": s.duration_ns / 1e3,
                "args": args,
            })
    return events


def trace_json(runs: Sequence[CapturedRun]) -> str:
    doc = {"traceEvents": trace_events(runs),
           "displayTimeUnit": "ns",
           "otherData": {"clock": "simulated", "time_unit_in": "ns"}}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_trace(path: str, runs: Sequence[CapturedRun]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace_json(runs))


def metrics_json(runs: Sequence[CapturedRun]) -> str:
    """Flat metrics document: one entry per run, its ``metrics`` tree
    (from ``MetricsRegistry.collect()``) flattened."""
    doc = {"runs": [{"label": run.label, "metrics": flatten(run.metrics),
                     **_dropped(run)} for run in runs]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), indent=None)


def write_metrics(path: str, runs: Sequence[CapturedRun]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(metrics_json(runs))


def span_table(spans: Sequence[Span], limit: int = 40) -> str:
    """Human-readable span dump (used by examples): indented by depth."""
    by_id = {s.span_id: s for s in spans}
    lines = []
    for s in sorted(spans, key=lambda s: (s.start_ns, s.span_id))[:limit]:
        depth = 0
        parent = s.parent_id
        while parent and parent in by_id and depth < 8:
            parent = by_id[parent].parent_id
            depth += 1
        dur = f"{s.duration_ns:>10.1f}" if s.finished else "      open"
        attrs = " ".join(f"{k}={v}" for k, v in s.attrs.items())
        lines.append(f"  {s.start_ns:>12.1f} ns {dur} ns  "
                     f"{'  ' * depth}{s.name:<18} {s.actor:<10} {attrs}")
    if len(spans) > limit:
        lines.append(f"  ... {len(spans) - limit} more spans")
    return "\n".join(lines)
