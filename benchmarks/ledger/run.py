"""The perf ledger: host cost per simulated lock operation on five
paper-shaped workloads, end to end and attributed by layer.

One command measures, checks and prints every metric by name with its
unit.  From the repository root::

    python benchmarks/ledger/run.py --seed 0 --out LEDGER.json            # timed set
    python benchmarks/ledger/run.py --seed 0 --out LEDGER.json --trace    # traced set
    python benchmarks/ledger/run.py --workload alock_local --seed 3 --seconds 28 --trace 0
    python benchmarks/ledger/run.py --compare A.json B.json
    python benchmarks/ledger/run.py --selftest

Each workload runs in a fresh child interpreter (``child.py``); the
last line printed for a workload is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero when any check fails.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import compare
import layers
import schema
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: fresh-interpreter probes behind ``setup_s`` (their median is reported)
SETUP_PROBES = 5
#: a child that has not answered by then is killed and the run fails
CHILD_TIMEOUT_S = 170


def _child(*args: str) -> dict:
    """Run ``child.py`` in a fresh interpreter and parse its last line."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload: workloads.Workload, seed: int, seconds: float,
            trace: bool) -> dict:
    """One workload's ledger entry: the child's measurements plus, for
    the timed set, the set-up probes."""
    common = ("--workload", workload.name, "--seed", str(seed))
    entry = _child("run", *common, "--seconds", str(seconds),
                   "--trace", str(int(trace)))
    if trace:
        del entry["end_to_end"]
    else:
        del entry["per_layer"]
        probes = [_child("setup", *common) for _ in range(SETUP_PROBES)]
        entry["end_to_end"]["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        entry["info"]["setup_probes"] = probes
    return entry


def result_line(entry: dict) -> dict:
    """The contract object for one workload: every end-to-end metric of
    an untraced run, every per-layer metric of a traced one."""
    values = entry.get("per_layer") or entry["end_to_end"]
    return {
        "correct": entry["failed"] == 0 and not entry["problems"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {name: {"value": value, "unit": schema.UNITS[name]}
                    for name, value in values.items()},
    }


def _print_entry(name: str, entry: dict) -> None:
    info = entry["info"]
    print(f"== {name}: {info['ops_per_pass']} ops/pass x {info['n_passes']} timed passes, "
          f"digest {info['digest'][:16]}, ops_attempted {entry['attempted']}, "
          f"ops_failed {entry['failed']}")
    for problem in entry["problems"]:
        print(f"   CHECK FAILED: {problem}")
    late = [i for i, p in enumerate(info["passes"]) if p["descheduled"]]
    print(f"   wall clock uncalibrated: median {info['wall_us_per_op_median']:.3f} us/op, "
          f"min {info['wall_us_per_op_min']:.3f} us/op; calibrated per-pass "
          f"IQR {info['host_us_per_op_iqr_pct']:.2f} %, descheduled passes {late or 'none'}; "
          f"sim p50 {info['sim_p50_us']:.3f} us, p99.9 {info['sim_p999_us']:.3f} us "
          f"over {info['sim_samples']} samples")
    for name_, value in (entry.get("per_layer") or entry["end_to_end"]).items():
        print(f"   {name_:<34} {value:>16.6f} {schema.UNITS[name_]}")


def _merge_out(path: str, seed: int, seconds: float, entries: dict) -> None:
    """Write the entries to ``path``; a traced set and a timed set of
    the same seed and environment share one file."""
    env = next(iter(entries.values()))["env"]
    ledger = {"schema": schema.SCHEMA, "seed": seed, "seconds": seconds,
              "env": env, "workloads": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
        reason = compare.incomparable(old, ledger)
        if reason:
            raise SystemExit(f"refusing to merge into {path}: {reason}; "
                             f"remove it or pick another --out")
        ledger["workloads"] = old["workloads"]
    for name, entry in entries.items():
        merged = ledger["workloads"].setdefault(name, {})
        entry = dict(entry)
        del entry["env"]
        section = "traced" if "per_layer" in entry else "timed"
        merged[section] = entry
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
        fh.write("\n")


def selftest() -> int:
    """Static checks, no simulation: the layer map is total, names are
    well-formed, and BENCHMARK.json lists what the harness prints."""
    import child

    problems = [f"package repro.{pkg} is not in layers.PACKAGE_LAYER"
                for pkg in layers.unmapped_packages(os.path.join(SRC, "repro"))]
    problems += [f"layers.PACKAGE_LAYER maps repro.{pkg} to unknown layer {layer!r}"
                 for pkg, layer in layers.PACKAGE_LAYER.items()
                 if layer not in layers.LAYERS]
    names = [w.name for w in workloads.WORKLOADS]
    names += [m[0] for m in schema.END_TO_END + schema.PER_LAYER]
    problems += [f"malformed name {n!r}" for n in names if not schema.NAME_RE.fullmatch(n)]
    problems += [f"name {n!r} is used twice" for n in sorted(set(names)) if names.count(n) > 1]
    problems += [f"malformed unit {u!r} for {n}" for n, u in schema.UNITS.items()
                 if not schema.UNIT_RE.fullmatch(u)]
    zero = dict.fromkeys(workloads.COUNTER_KEYS, 0)
    if set(child.counter_metrics(zero, 1)) != {m[0] for m in schema.COUNTER_METRICS}:
        problems.append("child.counter_metrics and schema.COUNTER_METRICS disagree")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        "paths": [os.path.relpath(HERE, ROOT).replace(os.sep, "/")],
        "run_seconds": schema.RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.WORKLOADS if w.gated],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in schema.END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in schema.PER_LAYER],
    }
    problems += [f"BENCHMARK.json {key!r} disagrees with the harness"
                 for key, value in expected.items() if bench.get(key) != value]
    problems += [f"workload {w.name}: 'why' is longer than 200 characters"
                 for w in workloads.WORKLOADS if len(w.why) > 200]

    for problem in problems:
        print(f"selftest: {problem}")
    print(f"selftest: {len(names)} names, {len(layers.PACKAGE_LAYER)} packages, "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w.name for w in workloads.WORKLOADS],
                        help="measure one workload (default: all five, gated or not)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: WorkloadSpec/scenario/exploration seeds")
    parser.add_argument("--seconds", type=float, default=schema.RUN_SECONDS,
                        help="how long the timed passes of one workload measure")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: one more pass under cProfile, print per-layer metrics")
    parser.add_argument("--out", help="write (or merge into) this ledger JSON file")
    parser.add_argument("--selftest", action="store_true",
                        help="check layer map, names and BENCHMARK.json; no simulation")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two ledger files written with --out")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC} holds no repro package; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.compare:
        return compare.main(*args.compare)

    selected = [workloads.BY_NAME[args.workload]] if args.workload else workloads.WORKLOADS
    entries = {}
    correct = True
    for workload in selected:
        try:
            entry = measure(workload, args.seed, args.seconds, bool(args.trace))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            # The child's own traceback is already on stderr.
            print(f"error: {workload.name}: {exc}", file=sys.stderr)
            return 1
        entries[workload.name] = entry
        _print_entry(workload.name, entry)
        line = result_line(entry)
        correct = correct and line["correct"]
        print(json.dumps(line), flush=True)
    if args.out:
        _merge_out(args.out, args.seed, args.seconds, entries)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
