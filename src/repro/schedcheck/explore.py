"""The explorer: run scenarios under policies, classify, replay.

One *schedule* = one fresh build of a scenario run under one policy
until every client finishes, the schedule drains (deadlock), or the
scenario deadline passes (stall/livelock); its ``sim_time_ns`` is the
makespan.  The run's tie-break choices are recorded as a sparse
decision string; feeding that string back through :func:`replay`
reproduces the execution byte for byte (same trace, same metrics, same
digest) — the property the shrinker and the regression suite are built
on.

Failure taxonomy (``ScheduleResult.failure_kind``); the first three are
:func:`repro.workload.runner.run_clients`' verdict, count mode's too:

* ``"exception"`` — a client process died (e.g. the holder oracle's
  :class:`~repro.common.errors.ProtocolError` on a mutual-exclusion
  violation).
* ``"deadlock"``  — the schedule drained with clients parked on events
  nobody will trigger; the detail names each and what it waits on.
* ``"stall"``     — the deadline passed with clients alive but events
  still flowing: livelock or starvation.
* ``"checker"``   — the run completed but its post-run verdict
  (:func:`repro.workload.runner.judge`, count mode's too) rejected it:
  budget bound, lost updates (counter conservation) or race audit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import ConfigError
from repro.common.rng import derive_seed
from repro.schedcheck.decisions import SCHEDULE_VERSION, Decisions
from repro.schedcheck.policies import ReplayPolicy, SchedulePolicy, make_policy
from repro.workload.runner import checker_detail, judge, run_clients

#: trace lines kept on each result for failure reports
TRACE_TAIL = 12


@dataclass
class ScheduleResult:
    """Outcome of one explored schedule."""

    ok: bool
    failure_kind: Optional[str] = None     # exception|deadlock|stall|checker
    detail: str = ""
    decisions: Decisions = field(default_factory=Decisions)
    dense: tuple = ()                      # raw per-choice-point picks
    fanouts: tuple = ()                    # ready-list size per choice point
    events: int = 0
    sim_time_ns: float = 0.0
    digest: str = ""                       # trace+metrics fingerprint
    trace_tail: tuple = ()
    schedule_index: int = -1               # position within an exploration
    policy_seed: Optional[int] = None
    #: post-mortem dump (canonical JSON, see repro.obs.postmortem) taken
    #: at the moment of failure; None for passing schedules.  Carried as
    #: a string so results cross process boundaries unchanged.
    dump: Optional[str] = None

    @property
    def n_choice_points(self) -> int:
        return len(self.dense)

    def summary(self) -> str:
        if self.ok:
            return (f"ok: {self.n_choice_points} choice points, "
                    f"{len(self.decisions)} non-default, "
                    f"{self.events} events, {self.sim_time_ns:.0f} ns")
        return (f"{self.failure_kind}: {self.detail} "
                f"[decisions {self.decisions.to_string() or '(default)'}]")


def execution_digest(cluster) -> str:
    """Fingerprint of one finished execution: every trace line plus the
    cluster's stats tree, hashed.  Two runs with equal digests performed
    the same protocol steps at the same times with the same outcomes."""
    h = hashlib.blake2b(digest_size=16)
    for ev in cluster.tracer:
        h.update(str(ev).encode())
        h.update(b"\n")
    h.update(json.dumps(cluster.stats(), sort_keys=True).encode())
    return h.hexdigest()


def run_schedule(scenario, policy: Optional[SchedulePolicy],
                 schedule_index: int = -1,
                 policy_seed: Optional[int] = None) -> ScheduleResult:
    """Build the scenario fresh and run it to completion under ``policy``
    (``None`` = the engine's un-policied fast path).  The cluster is
    closed once the digest, the verdict and the dump are taken."""
    run = scenario.build()
    env = run.cluster.env
    env.set_schedule_policy(policy)
    verdict = run_clients(env, run.processes, run.deadline_ns)
    makespan = env.now
    # The digest hashes NIC utilizations read at env.now and the dump
    # records sim_now_ns, both taken at the deadline since recording
    # began: move the clock there (nothing is left to dispatch by then).
    env.run(until=run.deadline_ns)

    dense = tuple(env.schedule_decisions)
    fanouts = tuple(env.schedule_fanouts)
    result = ScheduleResult(
        ok=True,
        decisions=Decisions.from_dense(dense),
        dense=dense, fanouts=fanouts,
        events=env.event_count, sim_time_ns=makespan,
        digest=execution_digest(run.cluster),
        trace_tail=tuple(str(ev) for ev in list(run.cluster.tracer)[-TRACE_TAIL:]),
        schedule_index=schedule_index, policy_seed=policy_seed)

    if verdict is None and (problems := judge(run.cluster, run.table,
                                              run.expected_ops)):
        verdict = ("checker", checker_detail(problems), None)
    if verdict is not None:
        result.ok = False
        result.failure_kind, detail, error = verdict
        result.detail = detail() if callable(detail) else detail
        from repro.obs.postmortem import failure_dump

        # Freeze the post-mortem while the failed execution's state is
        # still live: flight window, lock words, wait-for graph.
        result.dump = failure_dump(
            run.cluster, reason=result.failure_kind, detail=result.detail,
            table=run.table, decisions=result.decisions.to_string(),
            error=error)
    run.cluster.close()
    return result


_RESHRINK_HINT = ("re-find and re-shrink it, e.g. alock-experiments explore "
                  "--write-corpus against the current code")


def replay(scenario, decisions, strict: bool = False,
           recorded_version: int = SCHEDULE_VERSION) -> ScheduleResult:
    """Re-execute a recorded (possibly shrunk) decision string.

    ``decisions`` may be a :class:`Decisions`, a mapping, or a rendered
    string like ``"17:2,45:1"``.

    ``strict=True`` is the corpus-replay mode: a recording that no
    longer describes this scenario is reported as failure kind
    ``"stale"`` instead of whatever the unfaithfully-replayed schedule
    happened to do.  That is the case when ``recorded_version`` — the
    :data:`~repro.schedcheck.decisions.SCHEDULE_VERSION` the decisions
    were recorded under — is not this code's (the run is then not even
    started: with a different slot layout the same indices can replay
    to the end without a single clamped pick), and when the scenario
    drifted under the recording — the run ended before a recorded
    decision point, or a recorded pick had to be clamped to a narrower
    ready list.  A stale result's detail carries a re-shrink hint: the
    entry's decision string must be re-found and re-shrunk, not
    trusted.
    """
    if isinstance(decisions, str):
        decisions = Decisions.parse(decisions)
    policy = ReplayPolicy(decisions)
    if strict and recorded_version != SCHEDULE_VERSION:
        return ScheduleResult(
            ok=False, failure_kind="stale", decisions=policy.decisions,
            detail=(f"stale corpus entry: recorded under schedule version "
                    f"{recorded_version}, this code schedules under "
                    f"version {SCHEDULE_VERSION}; {_RESHRINK_HINT}"))
    result = run_schedule(scenario, policy)
    if strict:
        drift = policy.drift()
        if drift:
            result.ok = False
            result.failure_kind = "stale"
            result.detail = (
                "stale corpus entry: the scenario drifted under the "
                "recorded decisions (" + "; ".join(drift) + "); "
                + _RESHRINK_HINT)
            result.dump = None
    return result


@dataclass
class ExplorationReport:
    """Aggregate outcome of a bounded exploration."""

    schedules_run: int = 0
    ok_count: int = 0
    distinct_executions: int = 0
    failures: list = field(default_factory=list)   # ScheduleResult, capped
    failure_counts: dict = field(default_factory=dict)  # kind -> count
    #: cap on retained failure results (all are *counted*)
    max_kept: int = 16

    def record(self, result: ScheduleResult) -> None:
        self.schedules_run += 1
        if result.ok:
            self.ok_count += 1
        else:
            kind = result.failure_kind
            self.failure_counts[kind] = self.failure_counts.get(kind, 0) + 1
            if len(self.failures) < self.max_kept:
                self.failures.append(result)

    @property
    def first_failure(self) -> Optional[ScheduleResult]:
        return self.failures[0] if self.failures else None

    def summary(self) -> str:
        base = (f"{self.schedules_run} schedules: {self.ok_count} ok, "
                f"{self.schedules_run - self.ok_count} failed, "
                f"{self.distinct_executions} distinct executions")
        if self.failure_counts:
            kinds = ", ".join(f"{k}={v}" for k, v in
                              sorted(self.failure_counts.items()))
            base += f" ({kinds})"
        return base


def walk(scenario, seed: int, i: int, policy: str = "random",
         change_points: int = 3, horizon: int = 500) -> ScheduleResult:
    """Schedule ``i`` of the seeded walk: policy seed
    ``derive_seed(seed, "schedcheck", "explore", i)``.  The one
    statement of the walk — :func:`explore_random` loops over it and a
    fleet cell runs a slice of it, so the two agree by construction."""
    pseed = derive_seed(seed, "schedcheck", "explore", i)
    pol = make_policy(policy, pseed, change_points=change_points,
                      horizon=horizon)
    return run_schedule(scenario, pol, schedule_index=i, policy_seed=pseed)


def explore_random(scenario, n_schedules: int, seed: int = 0,
                   policy: str = "random", change_points: int = 3,
                   horizon: int = 500,
                   stop_on_failure: bool = False) -> ExplorationReport:
    """Run schedules ``0 .. n_schedules - 1`` of the seeded random (or
    PCT) :func:`walk` — the whole exploration is reproducible from
    ``seed`` alone.  A hunt that would run nothing is a
    :class:`~repro.common.errors.ConfigError`, not a pass.
    """
    if n_schedules < 1:
        raise ConfigError(f"budget must be >= 1, got {n_schedules}")
    report = ExplorationReport()
    digests = set()
    for i in range(n_schedules):
        result = walk(scenario, seed, i, policy, change_points, horizon)
        digests.add(result.digest)
        report.record(result)
        if stop_on_failure and not result.ok:
            break
    report.distinct_executions = len(digests)
    return report


def enumerate_schedules(scenario, max_schedules: int = 256,
                        max_choice_points: Optional[int] = None
                        ) -> ExplorationReport:
    """Bounded exhaustive enumeration (CHESS-style iterative DFS).

    Schedules are visited in lexicographic order of their dense decision
    vectors: each run replays the current prefix (defaults past its end),
    then the deepest incrementable position (bounded by
    ``max_choice_points``) is bumped to produce the next prefix.  For
    tiny configurations this covers the entire tie-break tree; the
    report's ``distinct_executions`` tells you when the space was larger
    than the budget.

    Args:
        max_schedules: hard cap on runs (>= 1).
        max_choice_points: only permute the first K choice points, K >= 0
            (``None`` = all — feasible only for very small scenarios).
    """
    if max_schedules < 1:
        raise ConfigError(f"budget must be >= 1, got {max_schedules}")
    if max_choice_points is not None and max_choice_points < 0:
        raise ConfigError(f"max_choice_points must be >= 0, "
                          f"got {max_choice_points}")
    report = ExplorationReport()
    digests = set()
    prefix: list[int] = []
    exhausted = False
    while not exhausted and report.schedules_run < max_schedules:
        result = run_schedule(scenario,
                              ReplayPolicy(Decisions.from_dense(prefix)),
                              schedule_index=report.schedules_run)
        digests.add(result.digest)
        report.record(result)
        dense, fanouts = list(result.dense), result.fanouts
        limit = len(dense)
        if max_choice_points is not None:
            limit = min(limit, max_choice_points)
        i = limit - 1
        while i >= 0 and dense[i] + 1 >= fanouts[i]:
            i -= 1
        if i < 0:
            exhausted = True
        else:
            prefix = dense[:i] + [dense[i] + 1]
    report.distinct_executions = len(digests)
    return report


__all__ = [
    "ScheduleResult", "ExplorationReport", "execution_digest",
    "run_schedule", "replay", "walk", "explore_random", "enumerate_schedules",
]
