"""The five ledger workloads: inputs made from a seed, one checked
verify pass, and one measured pass that returns its work counts.

All workloads are closed loops (each simulated client issues its next
operation when the previous one completes, the paper's §6 loop).  The
unit of work is one completed simulated lock operation: a lock+unlock
pair (``RunResult.completed_ops``), or for the schedule walk one
client operation of one explored schedule.

``repro`` is imported inside the functions that need it: the parent
harness reads names and reasons from here without paying the import,
and the set-up probe times that import itself.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field

WARMUP_NS = 50_000.0
VERIFY_OPS_PER_THREAD = 5
SHAPE_FLOOR = 4.0


@dataclass(frozen=True)
class Cell:
    """One lock-table cell of a workload (a ``WorkloadSpec`` minus the seed)."""

    lock_kind: str
    n_nodes: int
    threads_per_node: int
    n_locks: int
    locality_pct: float
    measure_ns: float

    def spec(self, seed: int, *, verify: bool = False):
        from repro.workload import WorkloadSpec

        shape = dict(
            n_nodes=self.n_nodes, threads_per_node=self.threads_per_node,
            n_locks=self.n_locks, locality_pct=self.locality_pct,
            lock_kind=self.lock_kind, seed=seed)
        if verify:
            # Same shape in count mode: every client performs a fixed
            # quota with the guarded counter and the race auditor on, so
            # run_workload itself checks lost updates and Table-1 races.
            return WorkloadSpec(**shape, ops_per_thread=VERIFY_OPS_PER_THREAD,
                                cs_counter=True, audit="record")
        return WorkloadSpec(**shape, warmup_ns=WARMUP_NS,
                            measure_ns=self.measure_ns, audit="off")

    @property
    def verify_quota(self) -> int:
        return self.n_nodes * self.threads_per_node * VERIFY_OPS_PER_THREAD


@dataclass(frozen=True)
class Walk:
    """A schedcheck exploration: ``schedules`` random-walk schedules plus
    as many PCT schedules of one small lock scenario."""

    lock_kind: str = "alock"
    n_nodes: int = 2
    threads_per_node: int = 2
    ops_per_thread: int = 2
    schedules: int = 200
    policies: tuple = ("random", "pct")

    def scenario(self, seed: int):
        from repro.schedcheck import LockScenario

        # The scenario's timing ignores its seed (the coarse cost model
        # has no jitter), so the seed also staggers the client starts on
        # the 100 ns tie grid: successive seeds walk differently offset
        # tie trees, and the simulated makespan varies with the seed as
        # it does on the cell workloads.  Seed 0 is the unstaggered walk.
        return LockScenario(
            lock_kind=self.lock_kind, n_nodes=self.n_nodes,
            threads_per_node=self.threads_per_node,
            ops_per_thread=self.ops_per_thread, seed=seed,
            stagger_ns=100.0 * (seed % 10))

    @property
    def ops_per_schedule(self) -> int:
        return self.n_nodes * self.threads_per_node * self.ops_per_thread


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple = ()
    #: run the cells through the sweep engine, as a figure does
    via_pmap: bool = False
    walk: Walk | None = None
    #: listed in BENCHMARK.json, so the contract's driver runs it; the
    #: others are measured by the full ledger set and ``--compare`` only
    #: (the driver's time limit has room for three 28 s workloads)
    gated: bool = True


def _paper_cell(lock_kind: str, n_locks: int, locality_pct: float,
                measure_ns: float) -> Cell:
    return Cell(lock_kind, 20, 12, n_locks, locality_pct, measure_ns)


_FIG_GRID = tuple(
    Cell(lock_kind, 3, 4, n_locks, locality_pct, 75_000.0)
    for lock_kind in ("alock", "spinlock", "mcs")
    for n_locks in (20, 100, 1000)
    for locality_pct in (100.0, 95.0, 90.0, 85.0))

WORKLOADS = (
    Workload(
        "alock_local",
        "uncontended local cohort at paper scale (20x12, 1000 locks, 100% local): "
        "memory+locks+cluster dominate and rdma/sim.resources do no per-op work",
        cells=(_paper_cell("alock", 1000, 100.0, 25_000.0),)),
    Workload(
        "alock_contended",
        "20 locks at 85% locality: queue handover, budget reacquire, watcher "
        "wake-ups and the remote cohort over verbs; guards the uncontended fast path",
        cells=(_paper_cell("alock", 20, 85.0, 1_400_000.0),), gated=False),
    Workload(
        "baseline_rdma",
        "mcs then spinlock at 20x12: every op is verbs through loopback and "
        "congested NIC pipelines; rdma+sim.resources+sim dominate, locks/memory do not",
        cells=(_paper_cell("mcs", 100, 90.0, 500_000.0),
               _paper_cell("spinlock", 100, 90.0, 500_000.0))),
    Workload(
        "fig_grid",
        "fig6-shaped 36-cell grid at 3x4 through pmap_workloads: what regenerating "
        "a figure costs; per-environment build and ramp-up weigh most here",
        cells=_FIG_GRID, via_pmap=True, gated=False),
    Workload(
        "schedcheck_walk",
        "random+PCT schedule walk of a 2x2 alock scenario: the SchedulePolicy "
        "tie-set path, history recording and checkers, which no cell exercises",
        walk=Walk()),
)

BY_NAME = {w.name: w for w in WORKLOADS}


# -- counters read from outside ------------------------------------------

_SUMMED = ("events", "serves", "verbs", "loopback_verbs", "qpc_hits",
           "qpc_misses", "word_ops", "local_ops", "remote_ops", "clusters")
_MAXED = ("rx_peak_queue", "tx_util_max", "rx_util_max")
#: every key of a pass's counters: the tap's totals plus what the pass
#: adds from its own results
COUNTER_KEYS = _SUMMED + _MAXED + (
    "cells", "schedules", "distinct_executions", "local_measured", "measured")


class CounterTap:
    """Exact work counts of every cluster a pass builds, read from the
    clusters' public counters.

    A cluster is folded into the totals when the next one is built (or
    the pass ends), by which point its run is over; only one cluster is
    ever retained, so the tap does not change the peak footprint.
    """

    def __init__(self) -> None:
        self._pending = None
        self.reset()

    def reset(self) -> None:
        self._fold()
        self.totals: dict = dict.fromkeys(_SUMMED, 0)
        self.totals.update(dict.fromkeys(_MAXED, 0))
        #: simulated time of each cluster's last protocol trace event
        #: (only scenario clusters trace; cells leave this empty)
        self.makespans_ns: list[float] = []

    def observe(self, cluster) -> None:
        self._fold()
        self._pending = cluster

    def finish(self) -> dict:
        self._fold()
        return dict(self.totals)

    def _fold(self) -> None:
        cluster, self._pending = self._pending, None
        if cluster is None:
            return
        t = self.totals
        t["clusters"] += 1
        t["events"] += cluster.env.event_count
        network = cluster.network
        t["verbs"] += sum(network.verb_counts.values())
        t["loopback_verbs"] += network.loopback_verbs
        for nic in network.nics:
            t["serves"] += (nic.tx.total_served + nic.rx.total_served
                            + nic.pcie.total_served)
            t["qpc_hits"] += nic.qpc.hits
            t["qpc_misses"] += nic.qpc.misses
            t["rx_peak_queue"] = max(t["rx_peak_queue"], nic.rx.peak_queue)
            t["tx_util_max"] = max(t["tx_util_max"], nic.tx.utilization())
            t["rx_util_max"] = max(t["rx_util_max"], nic.rx.utilization())
        tree = cluster.obs.metrics.collect()
        for region in tree["memory"]:
            t["word_ops"] += (region["local_reads"] + region["local_writes"]
                              + region["local_rmws"] + region["remote_ops_landed"])
        for thread in tree["threads"]:
            t["local_ops"] += thread["local_ops"]
            t["remote_ops"] += thread["remote_ops"]
        trace = list(cluster.tracer)
        if trace:
            self.makespans_ns.append(trace[-1].time)


@contextmanager
def tapped_build_cluster(tap: CounterTap):
    """Route ``run_workload``'s cluster construction past ``tap``.

    ``run_workload`` resolves ``build_cluster`` through its module's
    globals, so replacing the module attribute observes every cluster
    without touching the program."""
    from repro.workload import runner

    original = runner.build_cluster

    def build_cluster(spec, **cluster_kwargs):
        cluster, table = original(spec, **cluster_kwargs)
        tap.observe(cluster)
        return cluster, table

    runner.build_cluster = build_cluster
    try:
        yield
    finally:
        runner.build_cluster = original


class _TappedScenario:
    """A schedcheck scenario (anything with ``build()``) whose clusters
    pass the tap."""

    def __init__(self, inner, tap: CounterTap) -> None:
        self._inner = inner
        self._tap = tap

    def build(self):
        run = self._inner.build()
        self._tap.observe(run.cluster)
        return run


# -- one pass --------------------------------------------------------------

@dataclass
class PassResult:
    ops: int
    digest: str
    counters: dict
    #: simulated-time results (exact for a commit and seed)
    sim: dict
    #: checks that failed, each with the op quota it invalidates
    problems: list = field(default_factory=list)
    failed_ops: int = 0


def _sim_block(measured_ops: int, window_ns: float, samples_ns) -> dict:
    import numpy as np

    p50, p99, p999 = np.percentile(samples_ns, [50.0, 99.0, 99.9])
    return {
        "sim_mops": measured_ops / window_ns * 1e3,
        "sim_p50_us": float(p50) / 1e3,
        "sim_p99_us": float(p99) / 1e3,
        "sim_p999_us": float(p999) / 1e3,
        "sim_samples": int(len(samples_ns)),
    }


def _run_cells(workload: Workload, specs: list) -> list:
    if workload.via_pmap:
        from repro.parallel.engine import pmap_workloads

        return pmap_workloads(specs, workers=1)
    from repro.workload import run_workload

    return [run_workload(spec) for spec in specs]


def _cells_pass(workload: Workload, seed: int, tap: CounterTap,
                check_shape: bool) -> PassResult:
    import numpy as np

    specs = [cell.spec(seed) for cell in workload.cells]
    tap.reset()
    results = _run_cells(workload, specs)
    counters = tap.finish()
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.measured_ops},{r.completed_ops},"
                 f"{sorted(r.verb_counts.items())};".encode())
        h.update(r.latencies_ns.tobytes())
    pooled = np.concatenate([r.latencies_ns for r in results])
    counters["cells"] = len(results)
    counters["schedules"] = 0
    counters["distinct_executions"] = 0
    counters["local_measured"] = int(sum(int(r.local_mask.sum()) for r in results))
    counters["measured"] = int(len(pooled))
    out = PassResult(
        ops=sum(r.completed_ops for r in results), digest=h.hexdigest(),
        counters=counters,
        sim=_sim_block(sum(r.measured_ops for r in results),
                       sum(r.window_ns for r in results), pooled))
    if check_shape and workload.via_pmap:
        out.problems = _shape_problems(workload.cells, results)
        if out.problems:
            out.failed_ops = out.ops
    return out


def _walk_pass(walk: Walk, seed: int, tap: CounterTap, schedules: int) -> PassResult:
    import numpy as np
    from repro.schedcheck import explore_random

    tap.reset()
    scenario = _TappedScenario(walk.scenario(seed), tap)
    reports = [explore_random(scenario, schedules, seed=seed, policy=policy)
               for policy in walk.policies]
    counters = tap.finish()
    run = sum(r.schedules_run for r in reports)
    ok = sum(r.ok_count for r in reports)
    distinct = sum(r.distinct_executions for r in reports)
    makespans = np.asarray(tap.makespans_ns, dtype=np.float64)
    h = hashlib.sha256()
    h.update(f"{run},{ok},{distinct};".encode())
    h.update(makespans.tobytes())
    counters["cells"] = 0
    counters["schedules"] = run
    counters["distinct_executions"] = distinct
    counters["local_measured"] = 0
    counters["measured"] = 0
    ops = run * walk.ops_per_schedule
    # The walk records no per-operation latency, so its simulated sample
    # is one schedule: the time of its last protocol trace event.
    out = PassResult(ops=ops, digest=h.hexdigest(), counters=counters,
                     sim=_sim_block(ops, float(makespans.sum()), makespans))
    if ok != run:
        out.failed_ops = (run - ok) * walk.ops_per_schedule
        out.problems.append("walk: " + "; ".join(r.summary() for r in reports))
    return out


def run_pass(workload: Workload, seed: int, tap: CounterTap, *,
             check_shape: bool = False) -> PassResult:
    """One full-size pass of ``workload`` (the caller times it).

    ``check_shape`` is for the untimed warm-up pass: it adds the shape
    check on the pass's own results, so timed passes carry no checking
    work beyond what the program does itself."""
    if workload.walk is not None:
        return _walk_pass(workload.walk, seed, tap, workload.walk.schedules)
    return _cells_pass(workload, seed, tap, check_shape)


def verify_pass(workload: Workload, seed: int, tap: CounterTap) -> tuple[int, int, list]:
    """The checked, untimed pass: ``(ops attempted, ops failed, problems)``.

    A cell or schedule that raises or fails a checker counts at its
    full operation quota.
    """
    if workload.walk is not None:
        quick = max(10, workload.walk.schedules // 8)
        result = _walk_pass(workload.walk, seed, tap, quick)
        return result.ops, result.failed_ops, result.problems
    from repro.common.errors import SimulationError
    from repro.workload import run_workload

    attempted = failed = 0
    problems = []
    for cell in workload.cells:
        attempted += cell.verify_quota
        spec = cell.spec(seed, verify=True)
        try:
            result = run_workload(spec)
        except (SimulationError, AssertionError) as exc:
            failed += cell.verify_quota
            problems.append(f"verify {spec.label()}: {type(exc).__name__}: {exc}")
            continue
        if result.atomicity_violations or result.completed_ops != cell.verify_quota:
            failed += cell.verify_quota
            problems.append(
                f"verify {spec.label()}: {result.atomicity_violations} atomicity "
                f"violation(s), {result.completed_ops}/{cell.verify_quota} ops")
    return attempted, failed, problems


def _shape_problems(cells: tuple, results: list) -> list:
    """The one shape check the ledger carries (``fig_grid`` only): ALock's
    p50 at 100% locality is at least 4x below both baselines at every
    lock count — the paper's high-locality gap, with the floor the
    repo's own fig6 experiment uses (the model gives 5.9x over spinlock
    and 11.8x over mcs on this grid)."""
    import numpy as np

    p50 = {}
    for cell, r in zip(cells, results, strict=True):
        if cell.locality_pct == 100.0:
            p50[(cell.lock_kind, cell.n_locks)] = float(np.percentile(r.latencies_ns, 50))
    problems = []
    for (kind, n_locks), value in sorted(p50.items()):
        if kind != "alock" and value < SHAPE_FLOOR * p50[("alock", n_locks)]:
            problems.append(
                f"shape: {kind} p50 {value:.0f} ns at {n_locks} locks is under "
                f"{SHAPE_FLOOR:g}x alock's {p50[('alock', n_locks)]:.0f} ns")
    return problems


def setup_once(workload: Workload, seed: int) -> None:
    """What a user pays before the first simulated operation: import the
    entry package and build the first cell's cluster (or the scenario)."""
    if workload.walk is not None:
        workload.walk.scenario(seed).build()
        return
    from repro.workload.runner import build_cluster

    build_cluster(workload.cells[0].spec(seed))
