"""Fleet-scale schedule exploration: coverage-steered walks on the pool.

Exploration is embarrassingly parallel — every schedule is a sealed
build of a frozen :class:`~repro.schedcheck.scenario.LockScenario` plus
one derived policy seed — so the fleet fans walks through
:func:`repro.parallel.engine.run_chunks`, the loop every sweep and
experiment cell runs on: primitive :class:`ExploreCell` units out,
primitive :class:`CellOut` records back, crash isolation per cell,
byte-identical merge in cell order.

The loop is **batch-synchronous novelty steering**.  Each round, every
active scenario contributes a few cells; a cell's job list mixes fresh
random/PCT walks with *mutations* — near-miss sibling prefixes bred by
the scenario's :class:`~repro.schedcheck.coverage.CoverageMap` from the
previous rounds' decision/fanout logs, replayed through
:class:`~repro.schedcheck.policies.PrefixThenRandomPolicy` (forced
prefix, seeded random tail).  The parent merges returned logs in
deterministic order, folds them into the coverage map, breeds the next
candidate batch, and schedules the next round.  With steering disabled
the fleet degrades to exactly :func:`~repro.schedcheck.explore
.explore_random`'s schedule stream (same walk-seed derivation), which
is what makes the novelty-vs-random quality comparison, and the
1/2/4-worker byte-identity tests, meaningful.

Every number in a :class:`FleetReport`'s canonical JSON is a pure
function of the :class:`FleetConfig` — worker count, chunk completion
order and ``PYTHONHASHSEED`` never leak in — and each scenario's first
kept failure is shrunk and frozen as a corpus entry
(:mod:`repro.schedcheck.corpus`) so a fleet find becomes a permanent
regression test.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

from repro.common.errors import ConfigError
from repro.common.rng import derive_seed
from repro.faults import FaultPlan
from repro.parallel.cells import check_boundary_value, worker_entry
from repro.parallel.engine import run_chunks
from repro.schedcheck.corpus import (
    CorpusEntry,
    scenario_payload,
    write_entry,
)
from repro.schedcheck.coverage import DEFAULT_DEPTH, CoverageMap
from repro.schedcheck.decisions import Decisions
from repro.schedcheck.explore import ScheduleResult, run_schedule
from repro.schedcheck.policies import PrefixThenRandomPolicy, make_policy
from repro.schedcheck.scenario import LockScenario
from repro.schedcheck.shrink import shrink_failure

# ---------------------------------------------------------------------------
# seeded-bug scenario presets
# ---------------------------------------------------------------------------

#: (name, scenario, budget): the three opt-in lock defects, each found
#: by seeded random exploration within the stated schedule budget.
#: These are the documented reproduction constants — the mutation tests
#: (tests/schedcheck/test_mutations.py) and the CI fleet gate both
#: parametrize over this table.
SEEDED_BUGS: tuple = (
    (
        "no_victim_check",
        LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=2,
                     ops_per_thread=2, think_ns=200.0, seed=0,
                     lock_options=(("bug", "no_victim_check"),)),
        50,
    ),
    (
        "skip_budget_wait",
        LockScenario(lock_kind="alock", n_nodes=1, threads_per_node=2,
                     ops_per_thread=4, think_ns=100.0, seed=2,
                     lock_options=(("bug", "skip_budget_wait"),)),
        50,
    ),
    (
        # Two threads and a 100 ns critical section: under schedule
        # version 2 the handoff write of a three-thread, zero-dwell run
        # lands ahead of the too-late watcher in the *default* order, so
        # the bug would no longer hide from plain testing.
        "lost_wakeup",
        LockScenario(lock_kind="mcs", n_nodes=1, threads_per_node=2,
                     ops_per_thread=3, cs_ns=100.0, seed=0,
                     lock_options=(("bug", "lost_wakeup"),
                                   ("poll_interval_ns", 200.0))),
        50,
    ),
)

#: Hardened variants for the coverage-quality comparison: client start
#: staggers thin out the time-0 tie cluster, so the bugs need rarer
#: deep interleavings and pure random stops finding them immediately —
#: which is where novelty steering shows its value.  (At stagger 0 all
#: three bugs fall out of the first handful of schedules and steering
#: can't beat that.)
HARDENED_BUGS: tuple = (
    (
        "no_victim_check",
        LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=2,
                     ops_per_thread=2, think_ns=200.0, stagger_ns=600.0,
                     seed=0, lock_options=(("bug", "no_victim_check"),)),
        150,
    ),
    (
        "skip_budget_wait",
        LockScenario(lock_kind="alock", n_nodes=1, threads_per_node=2,
                     ops_per_thread=4, think_ns=100.0, seed=2,
                     lock_options=(("bug", "skip_budget_wait"),)),
        150,
    ),
    (
        "lost_wakeup",
        LockScenario(lock_kind="mcs", n_nodes=1, threads_per_node=3,
                     ops_per_thread=3, stagger_ns=700.0, seed=0,
                     lock_options=(("bug", "lost_wakeup"),
                                   ("poll_interval_ns", 200.0))),
        150,
    ),
)

#: Fault-injection fleet: correct locks under verb loss, latency spikes
#: and a crash window — the interleaving space *around* recovery paths.
#: These scenarios are expected to survive exploration (failures here
#: are real findings, not seeded).
FAULT_SCENARIOS: tuple = (
    (
        "alock_verb_loss",
        LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=2,
                     ops_per_thread=2, think_ns=200.0, seed=0,
                     faults=FaultPlan(verb_loss_rate=0.05)),
        100,
    ),
    (
        "alock_spikes_crash",
        LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=2,
                     ops_per_thread=2, seed=1,
                     faults=FaultPlan(spike_rate=0.1, spike_ns=2_000.0)),
        100,
    ),
    (
        "mcs_verb_loss",
        LockScenario(lock_kind="mcs", n_nodes=2, threads_per_node=2,
                     ops_per_thread=2, seed=0,
                     faults=FaultPlan(verb_loss_rate=0.05)),
        100,
    ),
)

PRESETS: dict = {
    "bugs": SEEDED_BUGS,
    "bugs-hard": HARDENED_BUGS,
    "faults": FAULT_SCENARIOS,
}


def correct_twin(scenario: LockScenario) -> LockScenario:
    """The same scenario with its seeded bug switched off — what the
    corpus replay suite runs to prove an entry *passes on fixed code*."""
    options = tuple((k, v) for k, v in scenario.lock_options if k != "bug")
    return LockScenario(**{**scenario.__dict__, "lock_options": options})


# ---------------------------------------------------------------------------
# the process boundary: cells out, records back
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExploreCell:
    """One schedulable batch of schedules for one scenario — primitives
    only (audited by ``check_boundary_value`` on construction).

    ``jobs`` entries are either ``("random", walk_index)`` — policy seed
    ``derive_seed(seed, "schedcheck", "explore", walk_index)``, the
    exact stream :func:`explore_random` would use — or
    ``("mut", mut_index, prefix)`` — a bred sibling prefix forced by
    :class:`PrefixThenRandomPolicy` with a tail seed derived from
    ``mut_index``.
    """

    index: int                 # global cell index = merge order
    scenario_name: str
    scenario: LockScenario
    seed: int                  # the fleet's master seed
    start_position: int        # scenario-global position of jobs[0]
    jobs: tuple
    policy: str = "random"
    change_points: int = 3
    horizon: int = 500
    depth: int = DEFAULT_DEPTH
    detail_limit: int = 400

    def __post_init__(self) -> None:
        check_boundary_value(self.jobs, "cell.jobs")
        check_boundary_value(self.scenario, "cell.scenario")


@dataclass(frozen=True)
class WalkRecord:
    """One executed schedule, reduced to what the parent needs:
    verdict, replay string, digest, and the coverage-capped
    decision/fanout logs.  Primitives only."""

    ok: bool
    kind: Optional[str]
    detail: str
    digest: str
    decisions: str
    dense: tuple
    fanouts: tuple
    n_points: int
    policy_seed: int
    source: str                # "random" | "mut"
    dump: Optional[str] = None


@dataclass(frozen=True)
class CellOut:
    """What one cell sent home; a crashed cell carries the error text
    instead of records (per-cell isolation, same as sweep cells)."""

    index: int
    ok: bool
    records: tuple = ()
    error: Optional[str] = None


def _run_one_job(cell: ExploreCell, job: tuple) -> WalkRecord:
    if job[0] == "random":
        pseed = derive_seed(cell.seed, "schedcheck", "explore", job[1])
        policy = make_policy(cell.policy, pseed,
                             change_points=cell.change_points,
                             horizon=cell.horizon)
    elif job[0] == "mut":
        pseed = derive_seed(cell.seed, "schedcheck", "fleet-mut", job[1])
        policy = PrefixThenRandomPolicy(job[2], pseed)
    else:  # pragma: no cover - guarded by cell construction
        raise ConfigError(f"unknown fleet job kind {job[0]!r}")
    r = run_schedule(cell.scenario, policy, policy_seed=pseed)
    return WalkRecord(
        ok=r.ok, kind=r.failure_kind,
        detail=r.detail[:cell.detail_limit],
        digest=r.digest, decisions=r.decisions.to_string(),
        dense=r.dense[:cell.depth], fanouts=r.fanouts[:cell.depth],
        n_points=r.n_choice_points, policy_seed=pseed, source=job[0],
        dump=r.dump)


@worker_entry
def run_explore_chunk(chunk: "tuple[ExploreCell, ...]") -> list[CellOut]:
    """Worker entry point: execute one chunk of exploration cells.

    Each cell builds its scenario fresh per schedule inside this
    process; exceptions become failed-cell records and never escape the
    chunk (crash isolation, mirroring ``run_spec_chunk``)."""
    out: list[CellOut] = []
    for cell in chunk:
        try:
            records = tuple(_run_one_job(cell, job) for job in cell.jobs)
            out.append(CellOut(index=cell.index, ok=True, records=records))
        except Exception as exc:
            out.append(CellOut(index=cell.index, ok=False,
                               error=f"{exc!r}\n{traceback.format_exc()}"))
    return out


# ---------------------------------------------------------------------------
# configuration and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FleetConfig:
    """Everything that determines a fleet run's canonical output.

    Worker count is deliberately *not* here: it is a runtime argument of
    :func:`run_fleet`, and the determinism tests assert it cannot change
    a single report byte.

    Attributes:
        scenarios: ``((name, scenario), ...)`` — each steered and
            reported independently.
        budget: schedule budget **per scenario**.
        seed: master seed; every policy seed derives from it.
        coverage: enable novelty steering (off = pure random/PCT walks,
            byte-compatible with :func:`explore_random`'s stream).
        cell_size: schedules per cell (the merge/crash-isolation unit).
        cells_per_round: cells each active scenario contributes per
            round; one round is one pool barrier.
        policy: base walk policy (``random`` | ``pct``).
        depth: coverage prefix depth cap.
        mutation_num/_den: fraction of schedule positions given to
            mutation jobs when candidates are available (default 3/4 —
            measured best on the hardened seeded bugs; see
            ``benchmarks/baselines/QUALITY_schedcheck.json``).
        stop_on_find: stop scheduling new rounds for a scenario once a
            failure is recorded (its in-flight round still completes).
        shrink: ddmin each scenario's first failure into a corpus entry.
    """

    scenarios: tuple
    budget: int = 2000
    seed: int = 0
    coverage: bool = True
    cell_size: int = 16
    cells_per_round: int = 4
    policy: str = "random"
    change_points: int = 3
    horizon: int = 500
    depth: int = DEFAULT_DEPTH
    mutation_num: int = 3
    mutation_den: int = 4
    stop_on_find: bool = True
    max_kept: int = 8
    detail_limit: int = 400
    shrink: bool = True
    shrink_replays: int = 400

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ConfigError("FleetConfig needs at least one scenario")
        names = [name for name, _sc in self.scenarios]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate scenario names: {names}")
        if self.budget < 1:
            raise ConfigError("budget must be >= 1")
        if self.cell_size < 1 or self.cells_per_round < 1:
            raise ConfigError("cell_size and cells_per_round must be >= 1")
        if self.policy not in ("random", "pct"):
            raise ConfigError(f"fleet policy must be random or pct, "
                              f"got {self.policy!r}")
        if not 0 <= self.mutation_num <= self.mutation_den:
            raise ConfigError("mutation fraction must be in [0, 1]")

    def payload(self) -> dict:
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "scenarios":
                out[f.name] = [[name, scenario_payload(sc)]
                               for name, sc in value]
            else:
                out[f.name] = value
        return out


@dataclass
class ScenarioFleetReport:
    """Per-scenario outcome of a fleet run (canonical fields only)."""

    name: str
    schedules_run: int = 0
    ok_count: int = 0
    failure_counts: dict = field(default_factory=dict)
    distinct_executions: int = 0
    crashed_cells: int = 0
    random_run: int = 0
    mut_run: int = 0
    #: scenario-global position of the first failing schedule (None =
    #: survived the budget).  In random mode this equals the failing
    #: index :func:`explore_random` would report.
    first_find: Optional[int] = None
    first_find_source: Optional[str] = None
    #: kept failures in position order (capped), as primitive dicts:
    #: position, kind, detail, decisions, digest, source.
    kept: list = field(default_factory=list)
    coverage: dict = field(default_factory=dict)
    #: shrink stats + the frozen corpus entry for the first failure
    shrink: Optional[dict] = None
    entry: Optional[CorpusEntry] = None
    #: the confirming replay's post-mortem (written next to the entry
    #: by :func:`write_fleet_corpus`); not part of canonical bytes —
    #: its digest is.
    entry_dump: Optional[str] = None

    def payload(self) -> dict:
        out = {
            "name": self.name,
            "schedules_run": self.schedules_run,
            "ok_count": self.ok_count,
            "failure_counts": dict(sorted(self.failure_counts.items())),
            "distinct_executions": self.distinct_executions,
            "crashed_cells": self.crashed_cells,
            "random_run": self.random_run,
            "mut_run": self.mut_run,
            "first_find": self.first_find,
            "first_find_source": self.first_find_source,
            "kept": self.kept,
            "coverage": self.coverage,
            "shrink": self.shrink,
            "entry": None if self.entry is None else self.entry.payload(),
        }
        if self.entry_dump is not None:
            out["entry_dump_digest"] = hashlib.blake2b(
                self.entry_dump.encode("utf-8"), digest_size=8).hexdigest()
        return out


@dataclass
class FleetReport:
    """Aggregate fleet outcome.  ``to_json_bytes`` is canonical — a
    pure function of the config — while wall-clock derived fields
    (``elapsed_s``, ``schedules_per_sec``, ``workers``) live outside
    the canonical payload, on the report object only."""

    config: FleetConfig
    scenarios: list = field(default_factory=list)
    total_schedules: int = 0
    rounds: int = 0
    workers: int = 0
    elapsed_s: float = 0.0

    @property
    def schedules_per_sec(self) -> float:
        return self.total_schedules / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def found(self) -> "list[ScenarioFleetReport]":
        return [s for s in self.scenarios if s.first_find is not None]

    def scenario(self, name: str) -> ScenarioFleetReport:
        for s in self.scenarios:
            if s.name == name:
                return s
        raise ConfigError(f"no scenario {name!r} in this fleet report")

    def payload(self) -> dict:
        return {
            "schema": "alock-fleet-report/1",
            "config": self.config.payload(),
            "rounds": self.rounds,
            "total_schedules": self.total_schedules,
            "scenarios": [s.payload() for s in self.scenarios],
        }

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.payload(), sort_keys=True, indent=2,
                           ensure_ascii=True) + "\n").encode("utf-8")

    def summary(self) -> str:
        lines = [f"fleet: {self.total_schedules} schedules over "
                 f"{len(self.scenarios)} scenario(s) in {self.rounds} "
                 f"round(s), {self.workers} worker(s), "
                 f"{self.elapsed_s:.1f}s "
                 f"({self.schedules_per_sec:.0f} schedules/sec)"]
        for s in self.scenarios:
            cov = s.coverage
            line = (f"  {s.name}: {s.schedules_run} run "
                    f"({s.random_run} random, {s.mut_run} mutation), "
                    f"{cov.get('prefixes_seen', 0)} novel prefixes")
            if s.first_find is None:
                line += ", no failure found"
            else:
                kind = s.kept[0]["kind"] if s.kept else "?"
                line += (f", first {kind} at schedule {s.first_find} "
                         f"({s.first_find_source})")
                if s.shrink is not None:
                    line += (f", shrunk {s.shrink['start_size']} -> "
                             f"{s.shrink['size']} decisions")
            if s.crashed_cells:
                line += f", {s.crashed_cells} crashed cell(s)"
            lines.append(line)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

class _ScenarioState:
    """Parent-side bookkeeping for one scenario's exploration."""

    def __init__(self, name: str, scenario: LockScenario,
                 config: FleetConfig):
        self.name = name
        self.scenario = scenario
        self.report = ScenarioFleetReport(name=name)
        self.coverage = CoverageMap(depth=config.depth)
        self.digests: set[str] = set()
        self.budget_spent = 0        # schedules scheduled (incl. crashed)
        self.next_walk = 0
        self.next_mut = 0
        self.next_position = 0

    def active(self, config: FleetConfig) -> bool:
        if self.budget_spent >= config.budget:
            return False
        if config.stop_on_find and self.report.first_find is not None:
            return False
        return True


def _build_cells(states: "list[_ScenarioState]", config: FleetConfig,
                 next_index: int) -> "list[ExploreCell]":
    """One round's cells, in deterministic order (scenario order, then
    cell order); mutation candidates are consumed here, in that order."""
    cells: list[ExploreCell] = []
    for st in states:
        if not st.active(config):
            continue
        for _ in range(config.cells_per_round):
            n = min(config.cell_size, config.budget - st.budget_spent)
            if n <= 0:
                break
            jobs: list[tuple] = []
            if config.coverage:
                # Mutation slots are position-parity based (every den-th
                # schedule, num of them), not per-cell rounding: at
                # cell_size=1 this still mutates every other schedule —
                # the tightest steer cadence — instead of rounding to 0.
                want = sum(
                    1 for q in range(st.next_position, st.next_position + n)
                    if q % config.mutation_den
                    >= config.mutation_den - config.mutation_num)
                for cand in st.coverage.take(want):
                    jobs.append(("mut", st.next_mut, cand.prefix))
                    st.next_mut += 1
            while len(jobs) < n:
                jobs.append(("random", st.next_walk))
                st.next_walk += 1
            cells.append(ExploreCell(
                index=next_index + len(cells), scenario_name=st.name,
                scenario=st.scenario, seed=config.seed,
                start_position=st.next_position, jobs=tuple(jobs),
                policy=config.policy, change_points=config.change_points,
                horizon=config.horizon, depth=config.depth,
                detail_limit=config.detail_limit))
            st.budget_spent += n
            st.next_position += n
    return cells


def _merge_cell(st: _ScenarioState, cell: ExploreCell, out: CellOut,
                config: FleetConfig) -> None:
    """Fold one cell's records into its scenario state.  Called in
    global cell order — the only order-sensitive step (novelty
    attribution), hence the fixed ordering."""
    rep = st.report
    if not out.ok:
        rep.crashed_cells += 1
        return
    for i, rec in enumerate(out.records):
        position = cell.start_position + i
        rep.schedules_run += 1
        if rec.source == "mut":
            rep.mut_run += 1
        else:
            rep.random_run += 1
        st.digests.add(rec.digest)
        novel = st.coverage.observe(rec.dense, rec.fanouts)
        if config.coverage and novel:
            st.coverage.breed(rec.dense, rec.fanouts, novel)
        if rec.ok:
            rep.ok_count += 1
            continue
        rep.failure_counts[rec.kind] = rep.failure_counts.get(rec.kind, 0) + 1
        if rep.first_find is None or position < rep.first_find:
            rep.first_find = position
            rep.first_find_source = rec.source
        if len(rep.kept) < config.max_kept:
            rep.kept.append({
                "position": position, "kind": rec.kind,
                "detail": rec.detail, "decisions": rec.decisions,
                "digest": rec.digest, "source": rec.source,
            })


def _shrink_and_freeze(st: _ScenarioState, config: FleetConfig) -> None:
    """Turn the scenario's earliest kept failure into a corpus entry."""
    rep = st.report
    if not rep.kept or not config.shrink:
        return
    first = min(rep.kept, key=lambda k: k["position"])
    seed_failure = ScheduleResult(
        ok=False, failure_kind=first["kind"], detail=first["detail"],
        decisions=Decisions.parse(first["decisions"]))
    shrunk = shrink_failure(st.scenario, seed_failure,
                            max_replays=config.shrink_replays)
    confirm = shrunk.result
    rep.shrink = {
        "start_size": shrunk.start_size, "size": shrunk.size,
        "replays_used": shrunk.replays_used,
        "decisions": shrunk.decisions.to_string(),
    }
    rep.entry = CorpusEntry(
        name=st.name, failure_kind=confirm.failure_kind or first["kind"],
        scenario=st.scenario, decisions=shrunk.decisions.to_string(),
        digest=confirm.digest, detail=confirm.detail,
        provenance=(
            ("fleet_seed", config.seed),
            ("found_at_schedule", rep.first_find),
            ("found_by", rep.first_find_source),
            ("shrink_replays", shrunk.replays_used),
            ("start_size", shrunk.start_size),
        ))
    rep.entry_dump = confirm.dump


def run_fleet(config: FleetConfig, *, workers: int = 0,
              executor_factory=None,
              on_round: Optional[Callable[[FleetReport], None]] = None
              ) -> FleetReport:
    """Run the exploration fleet described by ``config``.

    Args:
        workers: ``<= 1`` runs in-process (the serial reference path);
            ``N > 1`` shards cells over N worker processes.  Any value
            produces byte-identical canonical output.
        executor_factory: the :mod:`repro.parallel` test seam.
        on_round: progress callback, invoked with the (partially
            filled) report after each merged round.
    """
    states = [_ScenarioState(name, sc, config)
              for name, sc in config.scenarios]
    report = FleetReport(config=config,
                         scenarios=[st.report for st in states],
                         workers=max(1, workers))
    # Wall clock times the operator-facing rate only; it never reaches
    # the canonical payload.
    started = time.perf_counter()  # simlint: ignore[nondet-source]
    next_cell_index = 0
    while True:
        cells = _build_cells(states, config, next_cell_index)
        if not cells:
            break
        next_cell_index += len(cells)
        report.rounds += 1
        outs: dict[int, CellOut] = {}

        def on_chunk_done(idx: int, value, error) -> None:
            if error is not None:
                # The whole chunk died (worker crash / broken pool).
                value = [CellOut(index=cell.index, ok=False,
                                 error=f"chunk failure: {error!r}")
                         for cell in chunks[idx]]
            for out in value:
                outs[out.index] = out

        # one cell per chunk: a cell is already a batch of schedules,
        # so finer chunking buys nothing and coarser hurts stealing.
        chunks = [(cell,) for cell in cells]
        run_chunks(chunks, lambda chunk: (run_explore_chunk, chunk),
                   on_chunk_done, workers=workers,
                   executor_factory=executor_factory)

        by_name = {st.name: st for st in states}
        for cell in cells:                     # global cell order
            _merge_cell(by_name[cell.scenario_name], cell,
                        outs[cell.index], config)
        for st in states:
            st.coverage.rerank()
        if on_round is not None:
            on_round(report)

    for st in states:
        st.report.distinct_executions = len(st.digests)
        st.report.coverage = st.coverage.summary()
        _shrink_and_freeze(st, config)
    report.total_schedules = sum(s.schedules_run for s in report.scenarios)
    report.elapsed_s = time.perf_counter() - started  # simlint: ignore[nondet-source]
    return report


def write_fleet_corpus(report: FleetReport, corpus_dir: str) -> "list[str]":
    """Persist every frozen entry of ``report`` (with its post-mortem
    dump) under ``corpus_dir``; returns the written entry paths."""
    paths = []
    for s in report.scenarios:
        if s.entry is not None:
            paths.append(write_entry(s.entry, corpus_dir, dump=s.entry_dump))
    return paths


# ---------------------------------------------------------------------------
# quality-metric helpers
# ---------------------------------------------------------------------------

def first_find(scenario: LockScenario, budget: int, *, seed: int = 0,
               coverage: bool = True, cell_size: int = 1,
               cells_per_round: int = 1, policy: str = "random",
               name: str = "probe") -> Optional[int]:
    """Schedules-to-first-find for one scenario under one steering mode
    — the quality metric's primitive.  ``cell_size=1`` gives the
    tightest steer cadence (every other schedule can be a mutation bred
    from *all* earlier logs), which is the configuration the committed
    medians in ``benchmarks/baselines/QUALITY_schedcheck.json`` were
    measured at.
    """
    config = FleetConfig(scenarios=((name, scenario),), budget=budget,
                         seed=seed, coverage=coverage, cell_size=cell_size,
                         cells_per_round=cells_per_round, policy=policy,
                         shrink=False)
    return run_fleet(config).scenarios[0].first_find


__all__ = [
    "FAULT_SCENARIOS", "HARDENED_BUGS", "PRESETS", "SEEDED_BUGS",
    "CellOut", "ExploreCell", "FleetConfig", "FleetReport",
    "ScenarioFleetReport", "WalkRecord", "correct_twin", "first_find",
    "run_explore_chunk", "run_fleet", "write_fleet_corpus",
]
