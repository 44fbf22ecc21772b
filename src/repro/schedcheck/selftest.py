"""Determinism selftest: ``python -m repro.schedcheck.selftest``.

Prints a canonical transcript of a small exploration — per-schedule
digests, decision strings, and report summaries.  The test gate runs
this module in subprocesses under different ``PYTHONHASHSEED`` values
and asserts the output is byte-identical: schedule exploration must be a
pure function of its seeds, or recorded decision strings would not
replay across machines.
"""

from __future__ import annotations

import hashlib

from repro.common.rng import derive_seed
from repro.schedcheck.explore import explore_random, replay, run_schedule
from repro.schedcheck.fleet import SEEDED_BUGS, FleetConfig, run_fleet
from repro.schedcheck.policies import FifoPolicy, make_policy
from repro.schedcheck.scenario import LockScenario


def main() -> None:
    sc = LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=2,
                      ops_per_thread=2, seed=5)

    base = run_schedule(sc, None)
    fifo = run_schedule(sc, FifoPolicy())
    print(f"baseline digest={base.digest} events={base.events}")
    print(f"fifo     digest={fifo.digest} match={fifo.digest == base.digest}")

    for kind in ("random", "pct"):
        for i in range(3):
            seed = derive_seed(17, "selftest", kind, i)
            r = run_schedule(sc, make_policy(kind, seed))
            rr = replay(sc, r.decisions)
            print(f"{kind}[{i}] digest={r.digest} "
                  f"decisions={r.decisions.to_string() or '-'} "
                  f"replay_match={rr.digest == r.digest}")

    report = explore_random(sc, 6, seed=23)
    print("explore:", report.summary())

    # A tiny in-process fleet over the seeded bugs: the canonical report
    # (and hence every frozen corpus entry) must be a pure function of
    # the config — immune to PYTHONHASHSEED like everything above.
    config = FleetConfig(
        scenarios=tuple((name, bug_sc) for name, bug_sc, _b in SEEDED_BUGS),
        budget=32, seed=1)
    fleet = run_fleet(config)
    digest = hashlib.blake2b(fleet.to_json_bytes(),
                             digest_size=8).hexdigest()
    print(f"fleet: report_digest={digest}")
    for s in fleet.scenarios:
        entry = "-" if s.entry is None else (
            f"{s.entry.stem()} decisions=\"{s.entry.decisions}\"")
        print(f"fleet[{s.name}]: run={s.schedules_run} "
              f"distinct={s.distinct_executions} "
              f"first_find={s.first_find} entry={entry}")


if __name__ == "__main__":
    main()
