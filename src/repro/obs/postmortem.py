"""Failure snapshots: freeze the evidence at the moment something breaks.

A *post-mortem dump* is a plain-JSON snapshot assembled from things the
simulation already tracks — the ring view of the event log
(:mod:`repro.obs.flight`), the process registry's parked-on
descriptions, the lock oracle state, and the labeled protocol words —
taken when a failure is detected: a schedule or workload run that failed
its verdict (:func:`failure_dump`), or a lease expiry in the lock table.

The centerpiece is the **wait-for graph**: edges from waiting actors to
the lock word they are parked on (from ``lock.wait`` flight events not
yet discharged by a ``lock.acquired``) and from each word to the actor
currently holding its lock (oracle ``holder_gid``).  Deterministic
cycle detection turns "schedule drained (deadlock?)" into a named cycle
like ``t1@n0 → alock[k7].tail_l → t0@n0 → …``.

Everything here is cold-path and byte-deterministic: iteration is over
sorted or ring-ordered data, and :func:`dump_json` serializes with
``sort_keys`` — the same discipline as the PR 3 exporters, gated the
same way (same seed + same schedule ⇒ byte-identical dump).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

from repro.common.ids import split_global_thread_id
from repro.obs.log import swap_wait
from repro.sim.core import _describe_wait

SCHEMA = "alock-postmortem/1"

#: default number of trailing flight events frozen into a dump
DEFAULT_WINDOW = 128

#: environment variable naming a directory for dump files; when set,
#: :func:`failure_dump` persists each post-mortem there (CI uploads the
#: directory as an artifact when a gate fails).
DUMP_DIR_ENV = "ALOCK_POSTMORTEM_DIR"


def _holder_actor(gid: int) -> Optional[str]:
    if gid == 0:
        return None
    node, thread = split_global_thread_id(gid)
    return f"t{thread}@n{node}"


def _jsonable(value):
    """Coerce flight-event detail items to JSON-safe primitives."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# -- wait-for graph -----------------------------------------------------

def open_waits(events) -> dict[str, tuple[str, str]]:
    """Each actor's last undischarged wait, as ``(lock, word)``: a
    ``lock.wait`` (or ALock's ``mcs.swap``, see
    :func:`~repro.obs.log.swap_wait`) opens it, a ``lock.acquired`` on
    the same lock discharges it."""
    pending: dict[str, tuple[str, str]] = {}
    for ev in events:
        actor, kind, detail = ev[1], ev[2], ev[3]
        if kind == "lock.wait":
            pending[actor] = (str(detail[0]), str(detail[1]))
        elif kind == "mcs.swap":
            pending[actor] = (str(detail[0]), swap_wait(detail[1], detail[2]))
        elif kind == "lock.acquired":
            cur = pending.get(actor)
            if cur is not None and cur[0] == str(detail[0]):
                del pending[actor]
    return pending


def wait_for_graph(events, lock_holders: dict) -> dict:
    """Build the wait-for graph from flight events + oracle holders.

    Args:
        events: iterable of ``(t, actor, kind, detail)`` flight tuples,
            oldest first.
        lock_holders: lock name -> holder actor (or None when free).

    Returns ``{"edges": [[src, dst], ...], "cycles": [[n1, n2, ...], ...]}``
    with edges sorted and cycles discovered by deterministic DFS.  Each
    cycle is reported once, starting from its lexicographically smallest
    node.
    """
    pending = open_waits(events)
    edges: set[tuple[str, str]] = set()
    for actor in sorted(pending):
        lock_name, word = pending[actor]
        word_node = f"{lock_name}.{word}"
        edges.add((actor, word_node))
        holder = lock_holders.get(lock_name)
        if holder is not None and holder != actor:
            edges.add((word_node, holder))
    adjacency: dict[str, list[str]] = {}
    for src, dst in sorted(edges):
        adjacency.setdefault(src, []).append(dst)
    cycles = _find_cycles(adjacency)
    return {"edges": [list(e) for e in sorted(edges)], "cycles": cycles}


def _find_cycles(adjacency: dict[str, list[str]]) -> list[list[str]]:
    """Every elementary cycle reachable in ``adjacency`` via sorted DFS,
    canonicalized (rotated to start at the smallest node) and deduped."""
    seen_cycles: set[tuple[str, ...]] = set()
    cycles: list[list[str]] = []
    for root in sorted(adjacency):
        _dfs(adjacency, [root], {root: 0}, seen_cycles, cycles)
    return cycles


def _dfs(adjacency: dict[str, list[str]], stack: list[str],
         on_path: dict[str, int], seen_cycles: set[tuple[str, ...]],
         cycles: list[list[str]]) -> None:
    """:func:`_find_cycles`' search from the end of ``stack`` (not nested:
    a closure recursing through itself is a reference cycle)."""
    for nxt in adjacency.get(stack[-1], ()):
        pos = on_path.get(nxt)
        if pos is not None:
            cyc = stack[pos:]
            pivot = min(range(len(cyc)), key=lambda i: cyc[i])
            canon = tuple(cyc[pivot:] + cyc[:pivot])
            if canon not in seen_cycles:
                seen_cycles.add(canon)
                cycles.append(list(canon))
            continue
        on_path[nxt] = len(stack)
        stack.append(nxt)
        _dfs(adjacency, stack, on_path, seen_cycles, cycles)
        stack.pop()
        del on_path[nxt]


def render_cycle(cycle: list[str]) -> str:
    """``["a", "x.tail", "b"]`` → ``"a → x.tail → b → a"``."""
    return " → ".join(cycle + cycle[:1])


# -- snapshot assembly --------------------------------------------------

def snapshot(cluster, *, reason: str, detail: str = "", table=None,
             decisions: Optional[str] = None, error: Optional[str] = None,
             window: int = DEFAULT_WINDOW) -> dict:
    """Assemble a post-mortem dict for ``cluster`` at the current instant.

    Args:
        cluster: the failed run's cluster.
        reason: failure taxonomy tag (``"deadlock"``, ``"stall"``,
            ``"checker"``, ``"exception"``, ``"lease-expiry"``).
        detail: free-text one-liner (e.g. the exception message).
        table: the :class:`~repro.locktable.DistributedLockTable`, when
            one exists — adds per-lock oracle state, labeled word values
            and the wait-for graph's holder edges.
        decisions: schedcheck sparse decision string, when the failure
            came from an explored schedule — stored verbatim so the dump
            is replayable (:func:`repro.schedcheck.replay`).
        error: ``repr`` of the client's exception, if any.
        window: trailing flight events to freeze.
    """
    env = cluster.env
    flight = cluster.flight
    # The frozen event timeline is bounded to ``window``, but the
    # wait-for graph scans the whole ring: a hot spinner's verb events
    # can evict another client's lock.wait from the tail window.
    all_events = flight.window()
    events = all_events[-window:] if window else all_events
    last = flight.last_actions()

    processes = []
    for p in env.alive_processes():
        processes.append({
            "name": p.name,
            "pid": p.pid,
            "last_resumed_ns": p.last_resumed_at,
            "waiting_on": _describe_wait(p._waiting_on),
        })

    locks = []
    lock_holders: dict[str, Optional[str]] = {}
    descriptors: dict[str, int] = {}
    if table is not None:
        words_by_lock: dict[str, dict[str, int]] = {
            e.lock.name: {} for e in table.entries}
        for region in cluster.regions:
            for addr in sorted(region._labels):
                label = str(region._labels[addr])
                prefix, _, field = label.rpartition(".")
                if prefix in words_by_lock:
                    words_by_lock[prefix][field] = region.peek(addr)
                elif label.startswith(("desc[", "mcsdesc[")):
                    descriptors[label] = (region.peek_signed(addr)
                                          if field == "budget"
                                          else region.peek(addr))
        for e in table.entries:
            lk = e.lock
            holder = _holder_actor(lk.holder_gid)
            lock_holders[lk.name] = holder
            locks.append({
                "name": lk.name,
                "index": e.index,
                "home_node": e.home_node,
                "holder": holder,
                "holder_gid": lk.holder_gid,
                "holder_since_ns": lk.holder_since,
                "acquisitions": lk.acquisitions,
                "words": words_by_lock.get(lk.name, {}),
            })

    dump = {
        "schema": SCHEMA,
        "reason": reason,
        "detail": detail,
        "sim_now_ns": env.now,
        "events": [[e[0], e[1], e[2], [_jsonable(d) for d in e[3]]]
                   for e in events],
        "last_action": {a: [e[0], e[2], [_jsonable(d) for d in e[3]]]
                        for a, e in last.items()},
        "processes": processes,
        "locks": locks,
        "descriptors": descriptors,
        "wait_for": wait_for_graph(all_events, lock_holders),
        "counters": {
            "verbs": dict(cluster.network.verb_counts),
            "loopback_verbs": cluster.network.loopback_verbs,
            "events_processed": env.event_count,
        },
        "sched": {
            "decisions": decisions,
            "decision_count": len(env.schedule_decisions),
            "fanout_count": len(env.schedule_fanouts),
        },
    }
    if error is not None:
        dump["error"] = error
    if table is not None:
        dump["recovery"] = table.recovery_stats()
    return dump


def dump_json(dump: dict) -> str:
    """Canonical byte-deterministic serialization of a dump."""
    return json.dumps(dump, sort_keys=True, separators=(",", ":"))


def failure_dump(cluster, *, reason: str, detail: str, table=None,
                 decisions: Optional[str] = None,
                 error: Optional[BaseException] = None) -> str:
    """The one place a failed run's post-mortem is built: snapshot,
    serialize, persist under ``$ALOCK_POSTMORTEM_DIR`` if set, return the
    string.  ``error`` is the client's exception (``None`` for a
    ``checker`` verdict).  The string rides the failure home: on a
    ``ScheduleResult``, or as a raised error's ``_postmortem``, which the
    parallel engine puts on the failed cell's ``CellFailure``."""
    dump_str = dump_json(snapshot(cluster, reason=reason, detail=detail,
                                  table=table, decisions=decisions,
                                  error=None if error is None else repr(error)))
    out_dir = os.environ.get(DUMP_DIR_ENV)
    if not out_dir:
        return dump_str
    # Content-addressed, so identical failures collapse and concurrent
    # writers (pool workers) never collide.
    digest = hashlib.blake2b(dump_str.encode("utf-8"), digest_size=8).hexdigest()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"postmortem-{reason}-{digest}.json")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(dump_str)
    os.replace(tmp, path)
    return dump_str
