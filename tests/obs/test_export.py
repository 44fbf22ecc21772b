"""Exporter tests: Chrome trace-event structure and metrics JSON."""

import json

from repro.obs.export import (
    CapturedRun,
    metrics_json,
    span_table,
    trace_events,
    trace_json,
    write_metrics,
    write_trace,
)
from repro.obs.spans import LOCK_ACQUIRE, VERB_RTT, Span


def span(sid, parent, name, actor, t0, t1, **attrs):
    return Span(span_id=sid, parent_id=parent, name=name, actor=actor,
                start_ns=float(t0), end_ns=float(t1), attrs=attrs)


def make_run(label="r1"):
    spans = [
        span(1, 0, LOCK_ACQUIRE, "t0@n0", 1000, 3000, lock="l0"),
        span(2, 1, VERB_RTT, "t0@n0", 1200, 1800, verb="rCAS"),
        span(3, 0, LOCK_ACQUIRE, "t0@n1", 500, 900, lock="l0"),
        Span(span_id=4, parent_id=0, name=VERB_RTT, actor="t0@n0",
             start_ns=4000.0, end_ns=None, attrs={}),  # open: must be skipped
    ]
    return CapturedRun(label, spans, {"network": {"verbs": {"rCAS": 1}}})


class TestTraceEvents:
    def test_metadata_events(self):
        events = trace_events([make_run()])
        meta = [e for e in events if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in meta}
        assert ("process_name", "r1") in names
        assert ("thread_name", "t0@n0") in names
        assert ("thread_name", "t0@n1") in names

    def test_complete_events_microseconds(self):
        events = trace_events([make_run()])
        ev = next(e for e in events
                  if e["ph"] == "X" and e["args"]["span_id"] == 1)
        assert ev["ts"] == 1.0       # 1000 ns -> 1 us
        assert ev["dur"] == 2.0      # 2000 ns -> 2 us
        assert ev["name"] == LOCK_ACQUIRE
        assert ev["cat"] == "lock"
        assert ev["args"]["lock"] == "l0"
        assert ev["args"]["parent_id"] == 0

    def test_open_spans_skipped(self):
        events = trace_events([make_run()])
        assert all(e["args"]["span_id"] != 4
                   for e in events if e["ph"] == "X")

    def test_tids_from_sorted_actors(self):
        events = trace_events([make_run()])
        meta = {e["args"]["name"]: e["tid"]
                for e in events if e["name"] == "thread_name"}
        assert meta == {"t0@n0": 1, "t0@n1": 2}

    def test_pids_per_run(self):
        events = trace_events([make_run("a"), make_run("b")])
        pids = {e["args"]["name"]: e["pid"]
                for e in events if e["name"] == "process_name"}
        assert pids == {"a": 1, "b": 2}

    def test_event_order_deterministic(self):
        xs = [e for e in trace_events([make_run()]) if e["ph"] == "X"]
        keys = [(e["tid"], e["ts"], e["args"]["span_id"]) for e in xs]
        assert keys == sorted(keys)


class TestJsonDocs:
    def test_trace_json_loads_and_has_wrapper(self):
        doc = json.loads(trace_json([make_run()]))
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"]["clock"] == "simulated"
        assert len(doc["traceEvents"]) == 6  # 3 meta + 3 complete

    def test_metrics_json_flattened(self):
        doc = json.loads(metrics_json([make_run()]))
        (entry,) = doc["runs"]
        assert entry["label"] == "r1"
        assert entry["metrics"] == {"network.verbs.rCAS": 1}

    def test_dropped_events_named_only_when_non_zero(self):
        complete, truncated = make_run("ok"), make_run("cut")
        truncated.dropped = 17
        metrics = json.loads(metrics_json([complete, truncated]))["runs"]
        assert "dropped_events" not in metrics[0]
        assert metrics[1]["dropped_events"] == 17
        names = [e["args"] for e in trace_events([complete, truncated])
                 if e["name"] == "process_name"]
        assert names == [{"name": "ok"}, {"name": "cut", "dropped_events": 17}]

    def test_byte_determinism_across_calls(self):
        assert trace_json([make_run()]) == trace_json([make_run()])
        assert metrics_json([make_run()]) == metrics_json([make_run()])

    def test_writers_round_trip(self, tmp_path):
        tp, mp = tmp_path / "t.json", tmp_path / "m.json"
        write_trace(str(tp), [make_run()])
        write_metrics(str(mp), [make_run()])
        assert json.loads(tp.read_text())["traceEvents"]
        assert json.loads(mp.read_text())["runs"]


class TestSpanTable:
    def test_indents_children_and_marks_open(self):
        out = span_table(make_run().spans)
        lines = out.splitlines()
        acquire = next(l for l in lines if LOCK_ACQUIRE in l
                       and "t0@n0" in l)
        child = next(l for l in lines if "verb=rCAS" in l)
        assert child.index(VERB_RTT) > acquire.index(LOCK_ACQUIRE)
        assert any("open" in l for l in lines)

    def test_limit_elides(self):
        spans = [span(i, 0, VERB_RTT, "a", i * 10, i * 10 + 5)
                 for i in range(1, 10)]
        out = span_table(spans, limit=3)
        assert "... 6 more spans" in out
