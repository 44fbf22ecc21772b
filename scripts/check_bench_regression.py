"""Benchmark regression gate: compare a fresh ``BENCH_ci.json`` against
the committed baseline and fail on significant median slowdowns.

Usage (what CI runs)::

    PYTHONPATH=src python benchmarks/ci_bench.py --out BENCH_ci.json
    python scripts/check_bench_regression.py \\
        --baseline benchmarks/baselines/BENCH_ci.json \\
        --current BENCH_ci.json

Exit status: 0 when every scenario's median is within ``--threshold``
(default 20%) of the baseline, 1 when any scenario regressed or is
missing from the current run.  New scenarios absent from the baseline
are reported but don't fail — they start gating once re-baselined.

The always-on ring of the event log has its own budget: the current
run's ``flight_overhead`` probe must show a profiled ``emit`` share
under ``--flight-threshold`` (default 3%), and the deterministic
ring-events-per-run count must not have grown past 1.5x the baseline's.

Re-baselining: after an *intentional* perf change (or a runner-class
change), regenerate the baseline on the machine class that runs the
gate and commit it together with the change that moved the numbers::

    PYTHONPATH=src python benchmarks/ci_bench.py --repeats 9 \\
        --out benchmarks/baselines/BENCH_ci.json
"""

from __future__ import annotations

import argparse
import json
import sys


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if "benchmarks" not in payload:
        raise SystemExit(f"{path}: not a bench file (no 'benchmarks' key)")
    return payload


def compare(baseline: dict, current: dict, threshold: float) -> tuple[list[str], list[str]]:
    """Returns (report_lines, failures)."""
    lines: list[str] = []
    failures: list[str] = []
    base_benches = baseline["benchmarks"]
    cur_benches = current["benchmarks"]
    width = max((len(n) for n in base_benches), default=10)
    for name, base in sorted(base_benches.items()):
        cur = cur_benches.get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        base_m, cur_m = base["median_s"], cur["median_s"]
        ratio = cur_m / base_m if base_m > 0 else float("inf")
        delta_pct = 100.0 * (ratio - 1.0)
        verdict = "ok"
        if ratio > 1.0 + threshold:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {base_m * 1e3:.1f} ms -> {cur_m * 1e3:.1f} ms "
                f"({delta_pct:+.1f}% > +{threshold * 100:.0f}% budget)")
        elif ratio < 1.0 - threshold:
            verdict = "improved (consider re-baselining)"
        lines.append(f"  {name:<{width}}  {base_m * 1e3:9.1f} ms -> "
                     f"{cur_m * 1e3:9.1f} ms  {delta_pct:+6.1f}%  {verdict}")
    for name in sorted(set(cur_benches) - set(base_benches)):
        lines.append(f"  {name:<{width}}  (new scenario, no baseline — "
                     f"not gated)")
    return lines, failures


def check_flight_overhead(baseline: dict, current: dict,
                          flight_threshold: float) -> tuple[list[str], list[str]]:
    """Gate the always-on event ring's cost (the <3% budget).

    Two checks, both on the *current* run's ``flight_overhead`` probe
    (see ``ci_bench.flight_overhead_probe`` for why the gated number is
    the profiled within-run share of the log's ``emit``):

    * ``profiled_share_pct`` must stay under ``flight_threshold``;
    * ``note_calls_per_run`` (ring events kept per run) — deterministic
      for the pinned workload — must not exceed 1.5x the baseline's
      count, which catches a newly reported hot path (e.g. a per-poll
      event) with zero timer noise.
    """
    lines: list[str] = []
    failures: list[str] = []
    cur = current.get("flight_overhead")
    base = baseline.get("flight_overhead")
    if cur is None:
        if base is not None:
            failures.append("flight_overhead: probe missing from current run")
        return lines, failures
    share = cur.get("profiled_share_pct", 0.0)
    calls = cur.get("note_calls_per_run", 0)
    verdict = "ok"
    if share > flight_threshold:
        verdict = "REGRESSION"
        failures.append(
            f"flight_overhead: emit profiled share {share:.2f}% exceeds "
            f"the {flight_threshold:.1f}% always-on budget")
    lines.append(f"  event ring: {calls} events/run, profiled emit share "
                 f"{share:.2f}% (budget {flight_threshold:.1f}%)  {verdict}")
    if base is not None:
        base_calls = base.get("note_calls_per_run", 0)
        if base_calls and calls > 1.5 * base_calls:
            failures.append(
                f"flight_overhead: {calls} ring events/run vs {base_calls} in "
                f"the baseline (> 1.5x) — a hot path gained a ring event")
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline",
                        default="benchmarks/baselines/BENCH_ci.json")
    parser.add_argument("--current", default="BENCH_ci.json")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed median slowdown fraction "
                             "(0.20 = fail beyond +20%%)")
    parser.add_argument("--flight-threshold", type=float, default=3.0,
                        help="always-on event-ring budget as a percent of "
                             "profiled run time (default %(default)s%%)")
    args = parser.parse_args(argv)
    baseline = load(args.baseline)
    current = load(args.current)
    base_hw = baseline.get("hardware", {})
    cur_hw = current.get("hardware", {})
    if base_hw.get("platform") != cur_hw.get("platform"):
        print(f"note: baseline platform {base_hw.get('platform')!r} != "
              f"current {cur_hw.get('platform')!r}; thresholds assume "
              f"comparable hardware", file=sys.stderr)
    lines, failures = compare(baseline, current, args.threshold)
    flight_lines, flight_failures = check_flight_overhead(
        baseline, current, args.flight_threshold)
    lines += flight_lines
    failures += flight_failures
    print(f"bench regression check (threshold +{args.threshold * 100:.0f}%):")
    print("\n".join(lines))
    if failures:
        print(f"\nFAILED — {len(failures)} benchmark(s) regressed:",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print("\nIf this slowdown is intentional, re-baseline: see the "
              "module docstring.", file=sys.stderr)
        return 1
    print("\nall benchmarks within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
