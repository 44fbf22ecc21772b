"""Shared experiment infrastructure: result container, scale presets,
the one fan-out every experiment runs its cells through, and the
recording that collects those runs for export."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.analysis import format_table
from repro.common.errors import ConfigError
from repro.obs import INTERVALS, RING
from repro.obs.export import CapturedRun
from repro.parallel.engine import pmap_workloads
from repro.workload import RunResult, WorkloadSpec, run_workload

#: Scale presets.  Extent knobs consumed by the experiment modules:
#: ``nodes`` — cluster sizes to sweep; ``threads`` — threads/node sweep;
#: ``measure_ns``/``warmup_ns`` — measurement window; ``localities`` —
#: locality percentages for mixed workloads.
SCALES: dict[str, dict[str, Any]] = {
    "smoke": {
        "nodes": (3,),
        "threads": (2, 4),
        "fig1_threads": (1, 4, 8, 12),
        "localities": (85.0, 95.0),
        "warmup_ns": 100_000.0,
        "measure_ns": 400_000.0,
        "budgets": (5, 20),
    },
    "small": {
        "nodes": (5,),
        "threads": (1, 2, 4, 8, 12),
        "fig1_threads": (1, 2, 4, 6, 8, 12, 16),
        "localities": (85.0, 90.0, 95.0),
        "warmup_ns": 200_000.0,
        "measure_ns": 1_000_000.0,
        "budgets": (5, 10, 20),
    },
    "paper": {
        "nodes": (5, 10, 20),
        "threads": (1, 2, 4, 8, 12),
        "fig1_threads": (1, 2, 4, 6, 8, 10, 12, 16),
        "localities": (85.0, 90.0, 95.0),
        "warmup_ns": 300_000.0,
        "measure_ns": 1_500_000.0,
        "budgets": (5, 10, 20),
    },
}

#: Table sizes per contention level (§6: "20 locks for high contention,
#: 100 for medium, 1000 for low").
CONTENTION_LOCKS = {"high": 20, "medium": 100, "low": 1000}


def is_strict(scale: str) -> bool:
    """Whether quantitative paper-shape assertions are meaningful.

    ``smoke`` runs are deliberately too small for congestion effects to
    fully develop, so experiments only assert qualitative orderings
    there and reserve the paper's factors for ``small``/``paper``.
    """
    return scale in ("small", "paper")


def scale_params(scale: str) -> dict[str, Any]:
    try:
        return SCALES[scale]
    except KeyError:
        raise ConfigError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}") from None


#: the open recording's runs (see :func:`recording`), or None.
_recorded: Optional[list[CapturedRun]] = None


@contextlib.contextmanager
def recording() -> Iterator[list[CapturedRun]]:
    """Record, for export, every run the block's experiments make: each
    runs at the ``INTERVALS`` level, in whichever process the fan-out
    puts it, and its spans, metrics tree and dropped-event count come
    home in its :class:`RunResult`.  The yielded list fills with one
    labelled :class:`~repro.obs.export.CapturedRun` per run, in the
    order the experiments made them — the same at any worker count."""
    global _recorded
    outer, _recorded = _recorded, []
    try:
        yield _recorded
    finally:
        _recorded = outer


def _record(results: list[RunResult]) -> None:
    if _recorded is not None:
        _recorded.extend(
            CapturedRun(f"{r.spec.lock_kind}-n{r.spec.n_nodes}"
                        f"x{r.spec.threads_per_node}-loc{r.spec.locality_pct}"
                        f"-seed{r.spec.seed}",
                        r.spans, r.obs_metrics, r.dropped_events)
            for r in results)


def run_specs(specs, workers: int,
              obs: int = RING) -> dict[WorkloadSpec, RunResult]:
    """Run every distinct spec once at recording level ``obs`` (raised to
    ``INTERVALS`` while a :func:`recording` is open); return
    ``{spec: RunResult}``.

    The one way an experiment runs its cells: a module states its grid
    once, as a generator of :class:`~repro.parallel.Cell`, hands the
    specs here, and assembles its rows by indexing the returned dict — a
    plain index, so a cell the grid did not name is a ``KeyError``, never
    a silent extra run.  Every cell is a sealed seeded run (``WorkloadSpec`` is frozen,
    hence hashable), so who fills the dict — this process or a pool — is
    :func:`~repro.parallel.engine.pmap_workloads`'s business and changes
    wall-clock only — a failing cell fails the run the same way in both.
    """
    unique = list(dict.fromkeys(specs))
    results = pmap_workloads(unique, workers=workers,
                             obs=obs if _recorded is None else INTERVALS)
    _record(results)
    return dict(zip(unique, results, strict=True))


def run_direct(spec: WorkloadSpec, **cluster_kwargs) -> RunResult:
    """One run no spec can state — a cluster option such as a NIC
    config — simulated in this process and recorded like a cell of
    :func:`run_specs`."""
    result = run_workload(spec, obs=RING if _recorded is None else INTERVALS,
                          **cluster_kwargs)
    _record([result])
    return result


@dataclass
class ExperimentResult:
    """What one experiment run produced.

    Attributes:
        experiment_id: "fig1", "table1", ...
        title: human-readable description.
        scale: preset used.
        rows: flat dict rows (one per measured configuration).
        series: optional named series for ASCII charts
            (``{panel: (x, {name: y})}``).
        shape_checks: name -> bool for the paper-shape assertions this
            experiment performs on its own output.
        notes: free-form commentary (deviations, caveats).
    """

    experiment_id: str
    title: str
    scale: str
    rows: list[dict] = field(default_factory=list)
    series: dict[str, tuple] = field(default_factory=dict)
    shape_checks: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def all_shapes_hold(self) -> bool:
        return all(self.shape_checks.values())

    def check(self, name: str, condition: bool) -> None:
        """Record a paper-shape assertion outcome (once per name: a later
        pass must not be able to overwrite a recorded failure)."""
        if name in self.shape_checks:
            raise ConfigError(f"{self.experiment_id}: shape check {name!r} "
                              f"recorded twice")
        self.shape_checks[name] = bool(condition)

    def to_markdown(self) -> str:
        parts = [f"## {self.experiment_id}: {self.title}",
                 f"*scale: {self.scale}*", ""]
        if self.rows:
            parts.append("```")
            parts.append(format_table(self.rows))
            parts.append("```")
        if self.shape_checks:
            parts.append("")
            parts.append("Shape checks:")
            for name, ok in self.shape_checks.items():
                parts.append(f"- [{'x' if ok else ' '}] {name}")
        for note in self.notes:
            parts.append(f"\n> {note}")
        return "\n".join(parts)
