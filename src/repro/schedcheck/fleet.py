"""Fleet-scale schedule exploration: the seeded walk fanned over the pool.

Exploration is embarrassingly parallel — every schedule is a sealed
build of a frozen :class:`~repro.schedcheck.scenario.LockScenario` plus
one derived policy seed — so the fleet fans
:func:`~repro.schedcheck.explore.walk` through
:func:`repro.parallel.engine.run_chunks`, the loop every experiment
cell runs on: primitive :class:`ExploreCell` units out (a
scenario and a slice ``start .. start + count - 1`` of its walk),
primitive :class:`CellOut` records back, crash isolation per cell,
byte-identical merge in cell order.  A fleet therefore runs exactly
:func:`~repro.schedcheck.explore.explore_random`'s schedule stream.

The loop runs in rounds: each round every scenario still hunting
contributes up to :data:`CELLS_PER_ROUND` cells of :data:`CELL_SIZE`
schedules; a scenario stops after the round in which it first fails or
when its budget is spent.  Rounds are what keep a gate cheap: the three
seeded bugs all fall in round one (192 schedules) where submitting the
whole budget up front would run 600.

Every number in a :class:`FleetReport`'s canonical JSON is a pure
function of the :class:`FleetConfig` — worker count, chunk completion
order and ``PYTHONHASHSEED`` never leak in — and each scenario's first
failure is shrunk and frozen as a corpus entry
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
from repro.faults import FaultPlan
from repro.parallel.cells import check_boundary_value, worker_entry
from repro.parallel.engine import run_chunks
from repro.schedcheck.corpus import (
    CorpusEntry,
    scenario_payload,
    write_entry,
)
from repro.schedcheck.decisions import Decisions
from repro.schedcheck.explore import ScheduleResult, walk
from repro.schedcheck.scenario import LockScenario
from repro.schedcheck.shrink import shrink_failure

#: schedules per cell (the merge and crash-isolation unit)
CELL_SIZE = 16
#: cells each hunting scenario contributes per round (one pool barrier)
CELLS_PER_ROUND = 4
#: kept failures per scenario (all are counted)
MAX_KEPT = 8
#: characters of a failure's detail kept in the report
DETAIL_LIMIT = 400
#: replay budget of the shrinker per frozen entry
SHRINK_REPLAYS = 400

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
        # Clients started 800 ns apart: under schedule version 3 the
        # local leader's private steps ride with its visible ones, and
        # with all four clients starting together the remote leader's
        # victim write lands after the local one in the *default* order
        # — the deadlock would no longer hide from plain testing.
        "no_victim_check",
        LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=2,
                     ops_per_thread=2, think_ns=200.0, stagger_ns=800.0,
                     seed=0, lock_options=(("bug", "no_victim_check"),)),
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
    """Schedules ``start .. start + count - 1`` of one scenario's walk
    from the fleet's master ``seed`` — primitives only (the scenario is
    audited by ``check_boundary_value`` on construction)."""

    index: int                 # global cell index = merge order
    scenario_name: str
    scenario: LockScenario
    seed: int
    start: int
    count: int
    policy: str

    def __post_init__(self) -> None:
        check_boundary_value(self.scenario, "cell.scenario")


@dataclass(frozen=True)
class WalkRecord:
    """One executed schedule, reduced to what the parent reads: verdict,
    digest and replay string.  Primitives only."""

    ok: bool
    kind: Optional[str]
    detail: str
    digest: str
    decisions: str


@dataclass(frozen=True)
class CellOut:
    """What one cell sent home; a crashed cell carries the error text
    instead of records (per-cell isolation, same as experiment cells)."""

    index: int
    ok: bool
    records: tuple = ()
    error: Optional[str] = None


def _record(r: ScheduleResult) -> WalkRecord:
    return WalkRecord(ok=r.ok, kind=r.failure_kind,
                      detail=r.detail[:DETAIL_LIMIT], digest=r.digest,
                      decisions=r.decisions.to_string())


@worker_entry
def run_explore_chunk(chunk: "tuple[ExploreCell, ...]") -> list[CellOut]:
    """Worker entry point: execute one chunk of exploration cells.

    Each cell builds its scenario fresh per schedule inside this
    process; exceptions become failed-cell records and never escape the
    chunk (crash isolation, mirroring ``run_spec_chunk``)."""
    out: list[CellOut] = []
    for cell in chunk:
        try:
            records = tuple(
                _record(walk(cell.scenario, cell.seed, i, cell.policy))
                for i in range(cell.start, cell.start + cell.count))
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
        scenarios: ``((name, scenario), ...)`` — each explored and
            reported independently.
        budget: schedule budget **per scenario**.
        seed: master seed; every policy seed derives from it.
        policy: walk policy (``random`` | ``pct``).
        shrink: ddmin each scenario's first failure into a corpus entry.
    """

    scenarios: tuple
    budget: int = 2000
    seed: int = 0
    policy: str = "random"
    shrink: bool = True

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ConfigError("FleetConfig needs at least one scenario")
        names = [name for name, _sc in self.scenarios]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate scenario names: {names}")
        if self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        if self.policy not in ("random", "pct"):
            raise ConfigError(f"fleet policy must be random or pct, "
                              f"got {self.policy!r}")

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
    #: walk index of the first failing schedule (None = survived the
    #: budget) — the failing index :func:`explore_random` would report.
    first_find: Optional[int] = None
    #: kept failures in position order (capped), as primitive dicts:
    #: position, kind, detail, decisions, digest.
    kept: list = field(default_factory=list)
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
            "first_find": self.first_find,
            "kept": self.kept,
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
            "schema": "alock-fleet-report/2",
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
            line = (f"  {s.name}: {s.schedules_run} run, "
                    f"{s.distinct_executions} distinct")
            if s.first_find is None:
                line += ", no failure found"
            else:
                line += (f", first {s.kept[0]['kind']} at schedule "
                         f"{s.first_find}")
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

    def __init__(self, name: str, scenario: LockScenario):
        self.name = name
        self.scenario = scenario
        self.report = ScenarioFleetReport(name=name)
        self.digests: set[str] = set()
        self.next = 0                # next walk index to hand out

    def hunting(self, budget: int) -> bool:
        return self.next < budget and self.report.first_find is None


def _build_cells(states: "list[_ScenarioState]", config: FleetConfig,
                 next_index: int) -> "list[ExploreCell]":
    """One round's cells, in deterministic order (scenario order, then
    walk order)."""
    cells: list[ExploreCell] = []
    for st in states:
        for _ in range(CELLS_PER_ROUND):
            if not st.hunting(config.budget):
                break
            count = min(CELL_SIZE, config.budget - st.next)
            cells.append(ExploreCell(
                index=next_index + len(cells), scenario_name=st.name,
                scenario=st.scenario, seed=config.seed, start=st.next,
                count=count, policy=config.policy))
            st.next += count
    return cells


def _merge_cell(st: _ScenarioState, cell: ExploreCell, out: CellOut) -> None:
    """Fold one cell's records into its scenario state.  Called in
    global cell order, so a scenario's schedules arrive in walk order
    and its first recorded failure is its first find."""
    rep = st.report
    if not out.ok:
        rep.crashed_cells += 1
        return
    for position, rec in enumerate(out.records, cell.start):
        rep.schedules_run += 1
        st.digests.add(rec.digest)
        if rec.ok:
            rep.ok_count += 1
            continue
        rep.failure_counts[rec.kind] = rep.failure_counts.get(rec.kind, 0) + 1
        if rep.first_find is None:
            rep.first_find = position
        if len(rep.kept) < MAX_KEPT:
            rep.kept.append({
                "position": position, "kind": rec.kind,
                "detail": rec.detail, "decisions": rec.decisions,
                "digest": rec.digest,
            })


def _shrink_and_freeze(st: _ScenarioState, config: FleetConfig) -> None:
    """Turn the scenario's first failure into a corpus entry."""
    rep = st.report
    if not rep.kept or not config.shrink:
        return
    first = rep.kept[0]
    seed_failure = ScheduleResult(
        ok=False, failure_kind=first["kind"], detail=first["detail"],
        decisions=Decisions.parse(first["decisions"]))
    shrunk = shrink_failure(st.scenario, seed_failure,
                            max_replays=SHRINK_REPLAYS)
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
    states = [_ScenarioState(name, sc) for name, sc in config.scenarios]
    by_name = {st.name: st for st in states}
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

        for cell in cells:                     # global cell order
            _merge_cell(by_name[cell.scenario_name], cell, outs[cell.index])
        if on_round is not None:
            on_round(report)

    for st in states:
        st.report.distinct_executions = len(st.digests)
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


__all__ = [
    "CELLS_PER_ROUND", "CELL_SIZE", "FAULT_SCENARIOS", "PRESETS",
    "SEEDED_BUGS", "CellOut", "ExploreCell", "FleetConfig", "FleetReport",
    "ScenarioFleetReport", "WalkRecord", "correct_twin",
    "run_explore_chunk", "run_fleet", "write_fleet_corpus",
]
