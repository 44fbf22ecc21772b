"""Explicit-state model checking of the ALock (paper Appendix A).

The paper checks its TLA+/PlusCal spec of the ALock with TLC; this is
the Python equivalent.  :mod:`repro.verification.spec` translates the
PlusCal label by label into a transition system (one label, one atomic
step: TLC's granularity), and :func:`check` explores its reachable
state space once and reads every property off that graph:
MutualExclusion, DeadlockFreedom, and StarvationFree under weak
fairness.  Progress possibility follows from the last two (the argument
is in :mod:`repro.verification.checker`).  Injected spec bugs (e.g.
skipping the hand-off wait) show that the checker finds violations,
with replayable counterexample traces.
"""

from repro.verification.spec import ALockSpec, State
from repro.verification.checker import (
    PROPERTIES,
    CheckResult,
    Counterexample,
    check,
)

__all__ = ["ALockSpec", "State", "CheckResult", "Counterexample", "PROPERTIES", "check"]
