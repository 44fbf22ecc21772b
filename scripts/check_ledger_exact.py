#!/usr/bin/env python
"""The perf gate: the ledger's exact work counts, at zero tolerance.

Runs the ledger's traced set as a user would (``benchmarks/ledger/run.py
--seed 0 --seconds 0 --trace 1``), keeps of every workload the values
that are a function of the commit alone — execution digest, work
counters, simulated latencies, calls and generator resumes per op of
each repo layer — and compares them with the committed
``benchmarks/baselines/BENCH_exact.json``.  Any difference fails; a
change that moves work re-records the file with ``--write`` and commits
the few-line diff with the code that caused it.  Wall clock is not
judged here (a shared box's speed swings 1.3-1.7x for minutes): that is
the ledger's calibrated ``host_us_per_op`` over alternating pairs.  The
one timing-derived check is the always-on event ring's budget, the
``obs`` layer's share of the profiled pass; where that share sits near
the budget it is judged as the median of several profiled passes.

Exit status: 0 nothing differs; 1 a value differs or a check failed;
2 the run cannot be compared (another ledger schema, or another Python
minor version, under which call counts legitimately differ).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "benchmarks", "baselines", "BENCH_exact.json")
LEDGER_SCHEMA = "alock-ledger/1"
#: 0 seconds is the ledger's minimum of three timed passes on any host,
#: the shortest run.  The exact values do not depend on the pass count:
#: every run closes its cluster, which finalizes its suspended generators
#: inside that run, so the cyclic collector has none left to close (one
#: profiler call each) wherever it lands.  The traced set at --seconds 20
#: (4 to 11 passes) reads the same 210 values as at --seconds 0.
LEDGER_ARGS = ("--seed", "0", "--seconds", "0", "--trace", "1")

#: the always-on ring's budget, percent of the profiled pass
RING_BUDGET_PCT = 3.0
#: workloads whose share is judged as the median of this many profiled
#: passes, each a fresh child: ``alock_local``'s sits nearest the budget,
#: and single passes of one tree have read anywhere in 2.64–3.06 %
RING_PASSES = {"alock_local": 3}
#: printed, not gated: schedcheck scenarios build the cluster with
#: trace=True, so this share is the protocol level's, not the ring's
RING_NOT_GATED = ("schedcheck_walk",)


def project(ledger: dict) -> dict:
    """The exact values of a traced ledger run, keyed ``workload column``.
    ``other.*`` is left out: it counts numpy/stdlib/builtin calls and
    follows their versions, not this repo's code."""
    values = {}
    for name, sections in ledger["workloads"].items():
        traced = sections["traced"]
        info = traced["info"]
        columns = {"digest": info["digest"], **info["counters"]}
        for key in ("sim_p50_us", "sim_p999_us", "sim_samples"):
            columns[key] = info[key]
        for key, value in traced["per_layer"].items():
            if (key.endswith((".calls_per_op", ".resumes_per_op"))
                    and not key.startswith("other.")):
                columns[key] = value
        values.update((f"{name} {key}", value) for key, value in columns.items())
    python = ".".join(ledger["env"]["python"].split(".")[:2])
    return {"python": python, "values": values}


def totals(values: dict, name: str) -> tuple[float, float, float, float]:
    """One workload's Σ calls/op and Σ resumes/op over the repo's layers
    (the columns :func:`project` keeps), its resumes per event and the
    event core's calls per event (``sim.calls_per_op`` over
    ``sim.events_per_op``: the engine's Python calls per dispatch)."""
    def total(suffix: str) -> float:
        return sum(value for key, value in values.items()
                   if key.startswith(name + " ") and key.endswith(suffix))
    resumes = total(".resumes_per_op")
    events = values.get(f"{name} sim.events_per_op")
    engine = values.get(f"{name} sim.calls_per_op", 0.0)
    return (total(".calls_per_op"), resumes,
            resumes / events if events else 0.0, engine / events if events else 0.0)


def check(committed: dict | None, ledger: dict,
          more_shares: dict[str, list[float]] | None = None) -> int:
    """Compare one ledger run with the committed exact values, print
    every difference as ``workload column: committed → now`` and each
    workload's layer totals and engine calls per event (committed →
    now), and return the exit status.  ``None`` judges the run against
    itself, which is what decides whether ``--write`` may record it.
    ``more_shares`` holds further ``obs.share_pct`` readings by workload
    (:data:`RING_PASSES`); the ring budget judges their median with the
    run's own."""
    if ledger.get("schema") != LEDGER_SCHEMA:
        print(f"refusing to compare: ledger schema {ledger.get('schema')!r}, "
              f"this gate reads {LEDGER_SCHEMA!r}")
        return 2
    now = project(ledger)
    committed = committed or now
    if now["python"] != committed["python"]:
        print(f"refusing to compare: recorded under Python {committed['python']}, "
              f"running {now['python']}")
        return 2
    failures = []
    for name, sections in ledger["workloads"].items():
        traced = sections["traced"]
        if traced["failed"]:
            failures.append(f"{name} failed: {traced['failed']} of "
                            f"{traced['attempted']} ops")
        failures += [f"{name} problems: {p}" for p in traced["problems"]]
        readings = [traced["per_layer"]["obs.share_pct"],
                    *(more_shares or {}).get(name, ())]
        share = statistics.median(readings)
        gated = name not in RING_NOT_GATED
        print(f"{name} obs.share_pct: {share:.2f} %"
              + (" (median of " + ", ".join(f"{r:.2f}" for r in readings) + ")"
                 if len(readings) > 1 else "")
              + ("" if gated else " (not gated)"))
        if gated and share >= RING_BUDGET_PCT:
            failures.append(f"{name} obs.share_pct: {share:.2f} % is over the "
                            f"always-on ring's {RING_BUDGET_PCT} % budget")
    old, new = committed["values"], now["values"]
    keys = sorted(old.keys() | new.keys())
    differing = [key for key in keys if old.get(key) != new.get(key)]
    for key in differing:
        print(f"{key}: {old.get(key)!r} → {new.get(key)!r}")
    for name in sorted(ledger["workloads"]):
        sums = [totals(values, name) for values in (old, new)]
        print(f"{name} Σ calls/op, Σ resumes/op, resumes/event: "
              + " → ".join("%.2f, %.2f, %.2f" % t[:3] for t in sums)
              + "; engine calls/event: " + " → ".join("%.2f" % t[3] for t in sums))
    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"{len(differing)} of {len(keys)} exact values differ")
    return 1 if differing or failures else 0


def run_ledger(*extra: str) -> dict:
    """The ledger's traced set (or, with ``--workload NAME``, one of
    it), run as a user runs it.  Its tables are dropped; a dying
    child's traceback and workload arrive on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "traced.json")
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "benchmarks", "ledger", "run.py"),
             *LEDGER_ARGS, *extra, "--out", out],
            cwd=ROOT, stdout=subprocess.DEVNULL)
        if not os.path.exists(out):
            raise SystemExit(f"ledger run exited {done.returncode} "
                             f"without writing its file")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="re-record BENCH_exact.json from this run; commit "
                             "the diff with the change that caused it")
    args = parser.parse_args(argv)
    ledger = run_ledger()
    more_shares = {
        name: [run_ledger("--workload", name)["workloads"][name]["traced"]
               ["per_layer"]["obs.share_pct"] for _ in range(passes - 1)]
        for name, passes in RING_PASSES.items()}
    if not args.write:
        with open(BASELINE, encoding="utf-8") as fh:
            return check(json.load(fh), ledger, more_shares)
    status = check(None, ledger, more_shares)
    if status == 0:
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump(project(ledger), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {os.path.relpath(BASELINE, ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
