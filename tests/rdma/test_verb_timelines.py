"""Golden timelines of the NIC round trip.

Every verb, one RPC round trip and one dropped-then-retransmitted verb
are pinned event by event: the simulated time of every dispatch the
scenario causes, ``env.event_count`` and the clock when each verb
completes, its result, and every NIC's op counters, ``total_served``
and QPC hits/misses.

``golden_verb_timelines.json`` is schedule-derived (see "Re-recording
the schedule" in docs/architecture.md): a deliberate, versioned
schedule change re-records it with ::

    PYTHONPATH=src python tests/rdma/test_verb_timelines.py --record

which first checks that the change is *only* a schedule change:
against the committed recording, ``steps`` and the event counts may
differ, but every verb's completion time and result and every NIC
counter (:func:`durations`) must not — otherwise it refuses.  The
schedule-version-2 recording (PCIe/TX departures computed, free slots
take no slot) passed that check against the version-1 file, which
itself was recorded before the round trip became one flat generator:
same durations, about half the dispatches.  A model change that is
meant to move a completion time deletes the file first.
"""

import inspect
import json
import sys
from pathlib import Path

import pytest

from repro.cluster import Cluster
from repro.faults import CrashWindow, FaultPlan
from repro.memory import ptr_addr
from repro.obs import INTERVALS
from repro.rdma.rpc import RpcTransport

GOLDEN = Path(__file__).with_name("golden_verb_timelines.json")

VERBS = ("rRead", "rWrite", "rCAS", "rFAA")
PATHS = ("loopback", "fabric")
LOADS = ("idle", "contended")

#: (node, thread) of the issuing threads.  All loopback issuers share
#: node 0's NIC; the fabric case mixes two threads behind one TX
#: pipeline with a third arriving from another node, so the target's RX
#: queue sees both spaced and simultaneous arrivals.
_ISSUERS = {
    ("loopback", "idle"): [(0, 0)],
    ("loopback", "contended"): [(0, 0), (0, 1), (0, 2)],
    ("fabric", "idle"): [(0, 0)],
    ("fabric", "contended"): [(0, 0), (0, 1), (2, 0)],
}


def _issue(ctx, verb, ptr):
    if verb == "rRead":
        return ctx.r_read(ptr)
    if verb == "rWrite":
        return ctx.r_write(ptr, 7)
    if verb == "rCAS":
        return ctx.r_cas(ptr, 5, 9)
    return ctx.r_faa(ptr, -3, signed=True)


def _drive(cluster, bodies):
    """Run ``bodies`` (name -> generator function returning the verb's
    result) one dispatch at a time and record what the module docstring
    lists."""
    env = cluster.env
    done = {}

    def client(name, body):
        result = yield from body()
        done[name] = [env.now, env.event_count, result]

    procs = [env.process(client(name, body), name=name)
             for name, body in bodies.items()]
    steps = []
    while not all(p.processed for p in procs):
        env.step()
        steps.append(env.now)
    assert all(p.ok for p in procs), [p.value for p in procs]
    return {
        "steps": steps,
        "done": done,
        "nics": [
            {"tx_ops": n.tx_ops, "rx_ops": n.rx_ops,
             "loopback_ops": n.loopback_ops,
             "served": [n.tx.total_served, n.rx.total_served,
                        n.pcie.total_served],
             "qpc": [n.qpc.hits, n.qpc.misses]}
            for n in cluster.network.nics
        ],
    }


def verb_scenario(verb, path, load, **cluster_kwargs):
    cluster = Cluster(3, seed=0, **cluster_kwargs)
    target = 0 if path == "loopback" else 1
    ptr = cluster.alloc_on(target, 8)
    cluster.regions[target].write(ptr_addr(ptr), 5)
    bodies = {}
    for node, thread in _ISSUERS[(path, load)]:
        ctx = cluster.thread_ctx(node, thread)
        bodies[ctx.actor] = (lambda ctx=ctx: _issue(ctx, verb, ptr))
    return _drive(cluster, bodies)


def rpc_scenario():
    cluster = Cluster(3, seed=0)
    transport = RpcTransport(cluster.env, cluster.network)
    cluster.env.process(transport.serve(
        1, lambda request: (["echo", request.payload], False)))
    return _drive(cluster, {
        "caller": lambda: transport.call(0, 0, 1, "ping")})


def retransmit_scenario():
    """Node 1 is down for the first transmission only: the ghost charges
    node 0's send side, hangs, and is killed by the watchdog; the
    retransmission lands."""
    plan = FaultPlan(crash_windows=(CrashWindow(1, 0.0, 10_000.0),),
                     retry_timeout_ns=25_000.0)
    cluster = Cluster(3, seed=0, faults=plan)
    ptr = cluster.alloc_on(1, 8)
    ctx = cluster.thread_ctx(0, 0)
    out = _drive(cluster, {ctx.actor: lambda: ctx.r_cas(ptr, 0, 9)})
    out["retries"] = cluster.fault_injector.retries
    return out


def durations(timeline):
    """What a schedule change must not move: when each verb completed
    and with what result, and every NIC counter (plus ``retries``).
    ``steps`` and the event count at completion *are* the schedule."""
    kept = {k: v for k, v in timeline.items() if k != "steps"}
    kept["done"] = {name: [at, result]
                    for name, (at, _events, result) in timeline["done"].items()}
    return kept


def moved_durations(old, new):
    """Scenarios whose :func:`durations` differ between two recordings."""
    return [name for name in sorted(set(old) | set(new))
            if name not in old or name not in new
            or durations(old[name]) != durations(new[name])]


def record():
    out = {f"{verb}/{path}/{load}": verb_scenario(verb, path, load)
           for verb in VERBS for path in PATHS for load in LOADS}
    out["rpc"] = rpc_scenario()
    out["retransmit"] = retransmit_scenario()
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("load", LOADS)
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("verb", VERBS)
def test_verb_timeline(golden, verb, path, load):
    assert verb_scenario(verb, path, load) == golden[f"{verb}/{path}/{load}"]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("verb", VERBS)
def test_timed_cluster_runs_the_same_traversal(golden, verb, path):
    """The interval wrapper adds no event and moves none."""
    assert (verb_scenario(verb, path, "contended", obs=INTERVALS)
            == golden[f"{verb}/{path}/contended"])


def test_rpc_round_trip_timeline(golden):
    assert rpc_scenario() == golden["rpc"]


def test_retransmitted_verb_timeline(golden):
    out = retransmit_scenario()
    assert out["retries"] == 1
    assert out == golden["retransmit"]


def test_a_verb_is_one_generator_frame():
    """The depth guard: on an untimed, injector-less cluster a lock's
    ``old = yield from ctx.r_cas(...)`` re-enters exactly two generator
    frames per event the verb causes — the process body and the round
    trip — so wrapper frames cannot silently grow back."""
    # imported here: this file also runs as a script (``--record``),
    # where the ``tests`` package is not on the path
    from tests.conftest import profiling

    cluster = Cluster(1, seed=0)
    ctx = cluster.thread_ctx(0, 0)
    ptr = cluster.alloc_on(0, 8)
    got = []

    def body():
        old = yield from ctx.r_cas(ptr, 0, 9)
        got.append(old)

    resumes = []

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code.co_flags & inspect.CO_GENERATOR:
            resumes.append(frame.f_code.co_name)

    proc = cluster.env.process(body())
    with profiling(profiler):
        cluster.run()
    assert proc.ok and got == [0]
    # every dispatch but the last (the finished process's own event,
    # which nobody waits on) resumes the body, which resumes the trip
    verb_events = cluster.env.event_count - 1
    # boot + one sleep per stage boundary (pcie; tx + turnaround; rx;
    # the RMW window; dma; completion)
    assert verb_events == 7
    assert sorted(set(resumes)) == ["_round_trip", "body"]
    assert len(resumes) == 2 * verb_events


def test_the_record_guard_tells_schedule_from_durations(golden):
    """``--record`` accepts a recording that differs in dispatches only
    and refuses one that moves a completion time or a counter."""
    fewer_events = json.loads(json.dumps(golden))
    for timeline in fewer_events.values():
        del timeline["steps"][1::2]
        for entry in timeline["done"].values():
            entry[1] -= 1
    assert moved_durations(golden, fewer_events) == []
    late = json.loads(json.dumps(golden))
    late["rpc"]["done"]["caller"][0] += 5.0
    late["retransmit"]["nics"][0]["served"][0] += 1
    late["rRead/fabric/idle"]["done"]["t0@n0"][2] = 6
    assert moved_durations(golden, late) == [
        "rRead/fabric/idle", "retransmit", "rpc"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    recording = json.loads(json.dumps(record()))
    if GOLDEN.exists():
        moved = moved_durations(json.loads(GOLDEN.read_text()), recording)
        if moved:
            sys.exit("refusing to re-record: completion times, results or "
                     "NIC counters moved in " + ", ".join(moved) + " — that "
                     "is a model change, not a schedule change (delete "
                     f"{GOLDEN.name} first if it is meant)")
    rows = ",\n".join(f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                      for k, v in sorted(recording.items()))
    GOLDEN.write_text("{\n" + rows + "\n}\n")
    print(f"recorded {GOLDEN}")
