#!/usr/bin/env python
"""Smoke gate for the content-addressed sweep cache.

Runs the same small sweep grid twice against a throwaway cache store and
fails unless

* the second run serves >= 90% of its cells from the cache (it should
  be 100% — the threshold only absorbs future grid tweaks), and
* both runs serialize to byte-identical JSON and CSV (a cached row and
  a computed row must be indistinguishable).

Usage (CI runs it on every Python of the tests job, through
``tests/ci/test_cached_sweep_smoke.py``)::

    PYTHONPATH=src python scripts/cached_sweep_smoke.py [--workers N]

Exit code 0 on success, 1 with a diagnosis on stderr otherwise.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.parallel import ResultCache, run_sweep_parallel
from repro.workload.spec import WorkloadSpec

MIN_HIT_RATE = 0.90

BASE = WorkloadSpec(n_nodes=2, threads_per_node=1, n_locks=20,
                    ops_per_thread=20, audit="off")

AXES = {"lock_kind": ["alock", "spinlock", "mcs"],
        "n_locks": [20, 100],
        "locality_pct": [90.0, 100.0]}


def run_gate(workers: int = 0, cache_dir: str | None = None) -> list[str]:
    """Run the two-pass gate; returns a list of failure messages."""
    problems: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        root = cache_dir or tmp
        first = run_sweep_parallel(BASE, AXES, seeds=[0], workers=workers,
                                   cache=ResultCache(root))
        second = run_sweep_parallel(BASE, AXES, seeds=[0], workers=workers,
                                    cache=ResultCache(root))
        n = len(second.results)
        hit_rate = second.cache_hits / n if n else 1.0
        print(f"pass 1: {first.cache_hits} hits / {first.cache_misses} misses"
              f" over {n} cells")
        print(f"pass 2: {second.cache_hits} hits / {second.cache_misses} "
              f"misses ({hit_rate:.0%} hit rate)")
        if first.failures:
            problems.append(f"{len(first.failures)} cell(s) failed outright")
        if hit_rate < MIN_HIT_RATE:
            problems.append(
                f"second pass hit rate {hit_rate:.0%} is below the "
                f"{MIN_HIT_RATE:.0%} gate — the cache is not memoizing "
                f"unchanged cells")
        if first.to_json_bytes() != second.to_json_bytes():
            problems.append("JSON bytes differ between computed and cached "
                            "runs — cached rows are not canonical")
        if first.to_csv_bytes() != second.to_csv_bytes():
            problems.append("CSV bytes differ between computed and cached "
                            "runs — cached rows are not canonical")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes for both passes (default "
                             "serial; hit rate and bytes must not depend "
                             "on this)")
    args = parser.parse_args(argv)
    problems = run_gate(workers=args.workers)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print("cached-sweep smoke gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
