"""Schedule exploration for the simulated lock implementations.

The engine dispatches same-time events in insertion order; this package
systematically *permutes* those tie-breaks — the one degree of freedom a
real machine has that a deterministic simulator normally erases — and
checks every resulting execution: the locks' holder oracle fails a
client on a mutual-exclusion violation during the run, and one post-run
verdict (:func:`repro.workload.runner.judge`, count mode's too) checks
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

The names below are re-exported lazily (:mod:`repro.common.lazy`), so
a walk loads neither the corpus nor the shrinker until it uses one.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.schedcheck.corpus": ("CorpusEntry", "check_entry", "load_corpus",
                                "write_entry"),
    "repro.schedcheck.decisions": ("Decisions",),
    "repro.schedcheck.explore": ("ExplorationReport", "ScheduleResult",
                                 "enumerate_schedules", "execution_digest",
                                 "explore_random", "replay", "run_schedule",
                                 "walk"),
    "repro.schedcheck.policies": ("FifoPolicy", "PctPolicy", "RandomWalkPolicy",
                                  "ReplayPolicy", "SchedulePolicy", "make_policy"),
    "repro.schedcheck.scenario": ("BuiltRun", "LockScenario"),
    "repro.schedcheck.shrink": ("ShrinkResult", "shrink_failure"),
    "repro.workload.runner": ("check_budget_bounds",),
})

__all__ = [
    "BuiltRun", "CorpusEntry", "Decisions", "ExplorationReport",
    "FifoPolicy", "LockScenario", "PctPolicy", "RandomWalkPolicy",
    "ReplayPolicy", "SchedulePolicy", "ScheduleResult", "ShrinkResult",
    "check_budget_bounds", "check_entry", "enumerate_schedules",
    "execution_digest", "explore_random", "load_corpus", "make_policy",
    "replay", "run_schedule", "shrink_failure", "walk", "write_entry",
]
