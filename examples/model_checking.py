#!/usr/bin/env python3
"""Model-check the ALock protocol (the paper's Appendix A, in Python).

Explores the full reachable state space of the PlusCal translation once
and checks MutualExclusion, DeadlockFreedom and StarvationFree on it —
then injects two bugs to show the checker catching real violations with
counterexample traces.  Exits 1 if any verdict is not the expected one.

Run:  python examples/model_checking.py [--processes 3] [--budget 2]
"""

import argparse
import sys
import time

from repro.verification import PROPERTIES, ALockSpec, check


def report(title, spec, expected):
    """Check ``spec``, print the verdict, and return it if it is the
    ``expected`` property name (PROPERTIES: everything holds)."""
    print(f"\n=== {title} ===")
    t0 = time.perf_counter()
    result = check(spec)
    verdict = "HOLDS" if result.holds else "VIOLATED"
    print(f"  {result.property_name}: {verdict} "
          f"({result.states_explored} states, "
          f"{time.perf_counter() - t0:.2f}s)")
    if result.property_name != expected:
        print(f"  UNEXPECTED: wanted {expected}")
        return None
    return result


def show_tail(cex, steps):
    """The last ``steps`` states of a counterexample, one per line."""
    for i in range(max(0, len(cex.states) - steps), len(cex.states)):
        mover = f"pid {cex.actions[i - 1]} moved -> " if i else "init: "
        print(f"    {mover}pc={cex.states[i].pc} "
              f"cohort={cex.states[i].cohort} victim={cex.states[i].victim}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--processes", type=int, default=3,
                        help="NP (3 exercises intra-cohort passing)")
    parser.add_argument("--budget", type=int, default=2, help="InitialBudget")
    args = parser.parse_args()

    ok = report(f"correct ALock spec: NP={args.processes}, B={args.budget}",
                ALockSpec(args.processes, args.budget), PROPERTIES)

    overlap = report("injected bug: waiter skips the hand-off wait",
                     ALockSpec(3, 2, bug="skip_handoff_wait"), "MutualExclusion")
    if overlap:
        cex = overlap.counterexample
        print(f"  -> {cex.violation}\n  counterexample trace (last 6 steps):")
        show_tail(cex, 6)

    livelock = report("injected bug: Peterson without the victim yield",
                      ALockSpec(2, 1, bug="no_victim_check"), "StarvationFree")
    if livelock:
        cex = livelock.counterexample
        print(f"  -> {cex.violation}\n  the loop, repeated forever:")
        show_tail(cex, len(cex.states) - cex.loop_start)
        print("  (both cohort leaders spin forever: no deadlock — steps stay "
              "enabled —\n   but neither enters: a livelock, exactly what "
              "the victim word prevents)")
    return 0 if ok and overlap and livelock else 1


if __name__ == "__main__":
    sys.exit(main())
