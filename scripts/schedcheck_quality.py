#!/usr/bin/env python
"""Exploration-quality metrics: does novelty steering earn its keep?

For every hardened seeded bug (client staggers thin out the time-0 tie
cluster, so the defects need rarer interleavings than the stock repro
scenarios) this script measures *schedules-to-first-find* over a panel
of fleet seeds, once with coverage steering and once with the pure
random baseline — the same walk-seed stream, so the comparison is
apples to apples.  It prints the medians, the per-bug win/loss, and the
measured fleet schedule rate, and can rewrite the committed baseline::

    PYTHONPATH=src python scripts/schedcheck_quality.py \\
        --out benchmarks/baselines/QUALITY_schedcheck.json

The committed JSON is informational (it sits next to the perf gate's
``BENCH_exact.json`` but is not itself compared by any gate): CI gates
only on *found at all within budget*, via
``tests/schedcheck/test_coverage.py``.  Everything written to the file
is a pure function of the seed panel — byte-identical on any machine —
while wall-clock rates go to stdout only.

Exit status: what is gated — 0 when every (bug, mode) row found its bug
within budget on every seed, 1 otherwise.  The steering tally (on how
many bugs the steered median beats random's) is printed as information.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from repro.schedcheck.fleet import (
    HARDENED_BUGS,
    SEEDED_BUGS,
    FleetConfig,
    first_find,
    run_fleet,
)

SCHEMA = "alock-schedcheck-quality/1"

#: fleet seeds the medians are taken over
DEFAULT_SEEDS = 16


def measure(seeds: int) -> dict:
    """Schedules-to-first-find per bug per mode, over ``seeds`` fleets."""
    bugs = {}
    for name, scenario, budget in HARDENED_BUGS:
        modes = {}
        for mode, coverage in (("random", False), ("steered", True)):
            finds = [first_find(scenario, budget, seed=s, coverage=coverage)
                     for s in range(seeds)]
            hits = [f for f in finds if f is not None]
            modes[mode] = {
                "found": len(hits),
                "of": seeds,
                "median_schedules_to_find":
                    statistics.median(hits) if hits else None,
                "finds": finds,
            }
        r, st = modes["random"], modes["steered"]
        comparable = (r["median_schedules_to_find"] is not None
                      and st["median_schedules_to_find"] is not None)
        bugs[name] = {
            "budget": budget,
            "random": r,
            "steered": st,
            "steered_wins": bool(
                comparable and st["median_schedules_to_find"]
                < r["median_schedules_to_find"]),
        }
    return bugs


def fleet_rate() -> tuple[float, int]:
    """Measured schedules/sec of a serial gate-sized fleet (stdout only
    — wall clock is machine-dependent and never committed)."""
    config = FleetConfig(
        scenarios=tuple((name, sc) for name, sc, _b in SEEDED_BUGS),
        budget=64, seed=1, stop_on_find=False, shrink=False)
    start = time.perf_counter()
    report = run_fleet(config)
    elapsed = time.perf_counter() - start
    return report.total_schedules / elapsed, report.total_schedules


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure novelty-steering quality on the hardened "
                    "seeded bugs.")
    parser.add_argument("--seeds", type=int, default=DEFAULT_SEEDS,
                        help="fleet seeds per (bug, mode) cell "
                             "(default %(default)s — the committed panel)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the canonical quality JSON here "
                             "(e.g. benchmarks/baselines/"
                             "QUALITY_schedcheck.json)")
    parser.add_argument("--skip-rate", action="store_true",
                        help="skip the wall-clock schedules/sec probe")
    args = parser.parse_args(argv)

    bugs = measure(args.seeds)
    wins = sum(1 for b in bugs.values() if b["steered_wins"])
    for name, b in bugs.items():
        r, st = b["random"], b["steered"]
        verdict = "WIN" if b["steered_wins"] else "tie/loss"
        print(f"{name}: random {r['found']}/{r['of']} "
              f"med={r['median_schedules_to_find']} | "
              f"steered {st['found']}/{st['of']} "
              f"med={st['median_schedules_to_find']}  [{verdict}]")
    print(f"steered wins on {wins}/{len(bugs)} bugs (informational)")
    missed = [f"{name}/{mode}" for name, b in bugs.items()
              for mode in ("random", "steered")
              if b[mode]["found"] < b[mode]["of"]]
    if missed:
        print(f"NOT found within budget on every seed: {', '.join(missed)}")

    if not args.skip_rate:
        rate, total = fleet_rate()
        print(f"fleet rate: {rate:.0f} schedules/sec "
              f"({total} schedules, serial)")

    if args.out:
        doc = {
            "schema": SCHEMA,
            "description": "schedules-to-first-find on the hardened "
                           "seeded bugs; informational (CI gates on "
                           "found-at-all only). Regenerate with "
                           "scripts/schedcheck_quality.py; wall-clock "
                           "rates intentionally excluded.",
            "seeds": args.seeds,
            "probe": "first_find defaults: cell_size=1, "
                     "cells_per_round=1, mutation fraction 3/4",
            "bugs": bugs,
            "steered_wins": wins,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2,
                                ensure_ascii=True) + "\n")
        print(f"written: {args.out}")

    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
