"""Post-mortem rendering: ``python -m repro.obs.report <dump.json>``.

Turns a post-mortem dump (see :mod:`repro.obs.postmortem`) into the
report a human reads first: what failed, the trailing event timeline,
what every client last did and is now parked on, the lock/holder chain,
the wait-for cycle (if any), and a *suspected rule* — the failure
shape the dump most resembles and, where one guards that shape, the
simlint rule (``region-bypass``, for a raw park) to start the code hunt
from.

``--perfetto out.json`` additionally writes the flight-event window as
a Chrome/Perfetto trace slice (instant events per actor, same
byte-determinism discipline as :mod:`repro.obs.export`).

The tool also reads counterexample-corpus entries (schema
``alock-corpus/<n>``, see :mod:`repro.schedcheck.corpus`): it prints the
entry header — scenario recipe, minimized decision string, replay
command — and then renders the referenced post-mortem dump, resolved
relative to the entry file; ``--perfetto`` writes that dump's slice and
is a usage error (exit 2) for an entry whose dump is not on disk.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.obs.postmortem import open_waits, render_cycle

#: timeline rows shown by default
TIMELINE_LIMIT = 40


# -- suspected-rule heuristic -------------------------------------------

def suspect_rule(dump: dict) -> str:
    """Name the dump's failure shape and, where one guards it, the
    simlint rule (an id ``python -m repro.lint --list-rules`` prints)
    whose finding would look like it.  A heuristic, not a verdict: a
    starting point for the code hunt."""
    reason = dump.get("reason", "")
    events = dump.get("events", [])
    kinds = [e[2] for e in events]
    waits = open_waits(events)
    if reason == "lease-expiry":
        return ("holder past its lease: a client sat on the lock past its "
                "lease — look for a path out of the critical section that "
                "skips its release")
    if reason == "checker":
        return ("broken invariant: a completed run failed post-hoc checks — "
                "look for a path that exits the critical section without "
                "its release obligation")
    if reason == "exception":
        return ("died mid-protocol: read the error and its last verbs below; "
                "the raising path must give back the descriptor and the "
                "lock it held")
    if reason in ("deadlock", "stall"):
        parked_words = [word for _lock, word in waits.values()]
        if any("budget" in w for w in parked_words):
            return ("parked on a budget word: the waiters' wake conditions "
                    "exclude a state the protocol reaches — compare the "
                    "wait's clauses with the writes below (no lint rule "
                    "reads wait predicates)")
        if "fault.stall" in kinds or "fault.drop" in kinds:
            return ("handoff lost to a fault: the write that should wake a "
                    "waiter was dropped or delayed past every waiter's "
                    "watch")
        if reason == "deadlock":
            return ("lost wakeup: the schedule drained with waiters parked — "
                    "a wakeup write landed between a check and its park "
                    "(region-bypass)")
        return ("no progress: events still flowed at the deadline but "
                "these clients did not advance (starvation, or a wait "
                "that can never be satisfied)")
    return "no known failure shape; read the timeline"


# -- plain-text report ---------------------------------------------------

def render_report(dump: dict, timeline: int = TIMELINE_LIMIT) -> str:
    """The human-readable post-mortem."""
    lines: list[str] = []
    add = lines.append
    add(f"== post-mortem: {dump.get('reason', '?')} "
        f"at {dump.get('sim_now_ns', 0):.0f} ns ==")
    detail = dump.get("detail", "")
    if detail:
        add(f"detail: {detail}")
    if dump.get("error"):
        add(f"error: {dump['error']}")

    locks = dump.get("locks", [])
    held = [lk for lk in locks if lk.get("holder")]
    if held:
        add("")
        add("-- holder chain --")
        for lk in held:
            words = " ".join(f"{k}={v}" for k, v in
                             sorted(lk.get("words", {}).items()))
            add(f"  {lk['name']}: held by {lk['holder']} since "
                f"{lk.get('holder_since_ns', 0):.0f} ns "
                f"({lk.get('acquisitions', 0)} acquisitions; {words})")

    wf = dump.get("wait_for", {})
    if wf.get("edges"):
        add("")
        add("-- wait-for graph --")
        for src, dst in wf["edges"]:
            add(f"  {src} -> {dst}")
        for cyc in wf.get("cycles", []):
            add(f"  CYCLE: {render_cycle(cyc)}")
        if not wf.get("cycles"):
            add("  (no cycle: waiters block on words no live holder owns)")

    procs = dump.get("processes", [])
    if procs:
        add("")
        add("-- parked clients --")
        for p in procs:
            add(f"  {p['name']} (pid {p['pid']}): last resumed at "
                f"{p.get('last_resumed_ns', 0):.0f} ns, "
                f"waiting on {p.get('waiting_on', '?')}")

    last = dump.get("last_action", {})
    if last:
        add("")
        add("-- last action per actor --")
        for actor in sorted(last):
            t, kind, det = last[actor]
            det_s = " ".join(str(d) for d in det)
            add(f"  {actor}: {kind} {det_s} at {t:.0f} ns")

    events = dump.get("events", [])
    if events:
        add("")
        add(f"-- timeline (last {min(timeline, len(events))} "
            f"of {len(events)} recorded events) --")
        for t, actor, kind, det in events[-timeline:]:
            det_s = " ".join(str(d) for d in det)
            add(f"  {t:>12.1f} ns  {actor:<10} {kind:<14} {det_s}")

    sched = dump.get("sched", {})
    if sched.get("decisions") is not None:
        add("")
        add(f"replay: decisions \"{sched['decisions'] or '(default)'}\" "
            f"({sched.get('decision_count', 0)} choice points)")
    add("")
    add(f"suspected rule: {suspect_rule(dump)}")
    return "\n".join(lines)


# -- corpus entries ------------------------------------------------------

#: matches repro.schedcheck.corpus.SCHEMA_PREFIX (string literal so
#: this reader stays importable without the schedcheck package); what
#: follows it is the schedule version the entry was recorded under
CORPUS_SCHEMA_PREFIX = "alock-corpus/"


def render_corpus_entry(payload: dict, path: str = "",
                        timeline: int = TIMELINE_LIMIT) -> str:
    """A corpus entry's header plus — when its ``dump_ref`` resolves on
    disk relative to the entry file ``path`` — the referenced post-mortem
    report.  The replay line names the file: the entry carries the
    whole scenario, which no flag list rebuilds."""
    base_dir = os.path.dirname(path)
    lines: list[str] = []
    add = lines.append
    add(f"== corpus entry: {payload.get('name', '?')} "
        f"({payload.get('failure_kind', '?')}) ==")
    scenario = payload.get("scenario", {})
    opts = " ".join(f"{k}={v}" for k, v in scenario.get("lock_options", []))
    add(f"scenario: {scenario.get('lock_kind', '?')} "
        f"nodes={scenario.get('n_nodes', '?')} "
        f"threads={scenario.get('threads_per_node', '?')} "
        f"ops={scenario.get('ops_per_thread', '?')} "
        f"seed={scenario.get('seed', '?')}"
        + (f" [{opts}]" if opts else "")
        + (" +faults" if scenario.get("faults") else ""))
    add(f"decisions: \"{payload.get('decisions', '')}\"  "
        f"(schedule version "
        f"{str(payload.get('schema', '?')).rpartition('/')[2]})  "
        f"execution digest {payload.get('digest', '?')}")
    if payload.get("detail"):
        add(f"detail: {payload['detail']}")
    prov = payload.get("provenance", {})
    if prov:
        prov_s = " ".join(f"{k}={v}" for k, v in sorted(prov.items()))
        add(f"provenance: {prov_s}")
    add(f"replay: alock-experiments replay {path or '<entry file>'}")
    dump = referenced_dump(payload, base_dir)
    if dump is not None:
        add("")
        add(render_report(dump, timeline=timeline))
    elif payload.get("dump_ref"):
        add(f"(referenced dump {payload['dump_ref']} not found under "
            f"{base_dir or '.'})")
    else:
        add("(no post-mortem dump recorded for this entry)")
    return "\n".join(lines)


def referenced_dump(payload: dict, base_dir: str = "") -> dict | None:
    """The post-mortem a corpus entry's ``dump_ref`` names, resolved
    relative to ``base_dir``; None when it names none or the file is not
    on disk."""
    dump_ref = payload.get("dump_ref")
    if not dump_ref:
        return None
    dump_path = os.path.join(base_dir, dump_ref)
    if not os.path.exists(dump_path):
        return None
    with open(dump_path, encoding="utf-8") as fh:
        return json.load(fh)


# -- Perfetto trace slice ------------------------------------------------

def perfetto_events(dump: dict) -> list[dict]:
    """Flight window as Chrome trace *instant* events, one tid per
    actor (sorted), timestamps in microseconds."""
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
         "args": {"name": f"postmortem:{dump.get('reason', '?')}"}}]
    actors = sorted({e[1] for e in dump.get("events", [])})
    tids = {actor: i for i, actor in enumerate(actors, start=1)}
    for actor in actors:
        events.append({"ph": "M", "name": "thread_name", "pid": 1,
                       "tid": tids[actor], "args": {"name": actor}})
    for i, (t, actor, kind, det) in enumerate(dump.get("events", [])):
        events.append({
            "ph": "i",
            "s": "t",
            "name": kind,
            "cat": kind.split(".", 1)[0],
            "pid": 1,
            "tid": tids[actor],
            "ts": t / 1e3,
            "args": {"detail": [str(d) for d in det], "seq": i},
        })
    return events


def perfetto_json(dump: dict) -> str:
    doc = {"traceEvents": perfetto_events(dump),
           "displayTimeUnit": "ns",
           "otherData": {"clock": "simulated", "source": "postmortem"}}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render a post-mortem dump into a human-readable report.")
    parser.add_argument("dump",
                        help="path to a post-mortem JSON file or corpus "
                             "entry ('-' = stdin)")
    parser.add_argument("--perfetto", metavar="PATH",
                        help="also write the event window as a Perfetto "
                             "trace slice")
    parser.add_argument("--timeline", type=int, default=TIMELINE_LIMIT,
                        help="timeline rows to show (default %(default)s)")
    args = parser.parse_args(argv)
    if args.dump == "-":
        dump = json.load(sys.stdin)
        path = ""
    else:
        with open(args.dump, encoding="utf-8") as fh:
            dump = json.load(fh)
        path = args.dump
    if str(dump.get("schema")).startswith(CORPUS_SCHEMA_PREFIX):
        entry, dump = dump, referenced_dump(dump, os.path.dirname(path))
        if args.perfetto and dump is None:
            parser.error(f"--perfetto: corpus entry {args.dump} has no "
                         f"post-mortem dump on disk")
        print(render_corpus_entry(entry, path, timeline=args.timeline))
    else:
        print(render_report(dump, timeline=args.timeline))
    if args.perfetto:
        with open(args.perfetto, "w", encoding="utf-8") as fh:
            fh.write(perfetto_json(dump))
        print(f"perfetto trace written to {args.perfetto}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
