"""Experiment registry: id → runner."""

from __future__ import annotations

from typing import Callable

from repro.common.errors import ConfigError
from repro.experiments import (
    ext_ablations,
    ext_faults,
    ext_phases,
    ext_related_work,
    ext_skew,
    fig1_loopback,
    fig4_budget,
    fig5_throughput,
    fig6_latency,
    table1_atomicity,
)
from repro.experiments.base import ExperimentResult

#: Paper artifacts first, then beyond-the-paper extensions (ext-*).
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1_atomicity.run,
    "fig1": fig1_loopback.run,
    "fig4": fig4_budget.run,
    "fig5": fig5_throughput.run,
    "fig6": fig6_latency.run,
    "ext-related": ext_related_work.run,
    "ext-skew": ext_skew.run,
    "ext-faults": ext_faults.run,
    "ext-phases": ext_phases.run,
    "ext-ablations": ext_ablations.run,
}


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(experiment_id: str, scale: str = "small", seed: int = 0,
                   workers: int = 0) -> ExperimentResult:
    """Run one experiment.  ``workers > 1`` runs its sealed seeded cells
    on a process pool; the result is identical to a serial run (see
    :func:`repro.experiments.base.run_specs`)."""
    return get_experiment(experiment_id)(scale=scale, seed=seed,
                                         workers=workers)
