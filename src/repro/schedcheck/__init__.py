"""Schedule exploration for the simulated lock implementations.

The engine dispatches same-time events in insertion order; this package
systematically *permutes* those tie-breaks — the one degree of freedom a
real machine has that a deterministic simulator normally erases — and
checks every resulting execution: the locks' holder oracle fails a
client on a mutual-exclusion violation during the run, and one post-run
verdict (:meth:`~repro.schedcheck.scenario.BuiltRun.validate`) checks
the budget bound, guarded-counter conservation and the race audit.

Workflow: pick a :class:`~repro.schedcheck.scenario.LockScenario`,
explore with :func:`~repro.schedcheck.explore.explore_random` (seeded
random walk or PCT priorities; :mod:`repro.schedcheck.fleet` fans the
same walk over worker processes and, as the one schedcheck module that
loads the process pool, is not re-exported here) or
:func:`~repro.schedcheck.explore.enumerate_schedules` (bounded
exhaustive), then :func:`~repro.schedcheck.shrink.shrink_failure` any
failure down to a readable decision string and
:func:`~repro.schedcheck.explore.replay` it at will — replays are
byte-identical, across processes and hash seeds.
"""

from repro.schedcheck.corpus import (
    CorpusEntry,
    check_entry,
    load_corpus,
    write_entry,
)
from repro.schedcheck.decisions import Decisions
from repro.schedcheck.explore import (
    ExplorationReport,
    ScheduleResult,
    enumerate_schedules,
    execution_digest,
    explore_random,
    replay,
    run_schedule,
    walk,
)
from repro.schedcheck.policies import (
    FifoPolicy,
    PctPolicy,
    RandomWalkPolicy,
    ReplayPolicy,
    SchedulePolicy,
    make_policy,
)
from repro.schedcheck.scenario import (
    BuiltRun,
    LockScenario,
    check_budget_bounds,
)
from repro.schedcheck.shrink import ShrinkResult, shrink_failure

__all__ = [
    "BuiltRun", "CorpusEntry", "Decisions", "ExplorationReport",
    "FifoPolicy", "LockScenario", "PctPolicy", "RandomWalkPolicy",
    "ReplayPolicy", "SchedulePolicy", "ScheduleResult", "ShrinkResult",
    "check_budget_bounds", "check_entry", "enumerate_schedules",
    "execution_digest", "explore_random", "load_corpus", "make_policy",
    "replay", "run_schedule", "shrink_failure", "walk", "write_entry",
]
