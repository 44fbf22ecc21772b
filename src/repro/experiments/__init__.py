"""Experiment harness: one module per paper artifact.

Every table and figure of the paper's evaluation has a module here that
regenerates it on the simulator:

========  ==========================================================
id        paper artifact
========  ==========================================================
table1    Table 1 — local/remote atomicity matrix
fig1      Fig. 1 — RDMA spinlock loopback saturation (1 node)
fig4      Fig. 4 — budget sensitivity (relative speedup vs (5,5))
fig5      Fig. 5 — throughput grid (nodes × contention × locality)
fig6      Fig. 6 — latency CDFs (contention × locality, 8 threads)
========  ==========================================================

Plus beyond-the-paper extensions: ``ext-related`` (the §1/§7
alternatives measured), ``ext-skew`` (Zipfian lock popularity),
``ext-faults`` (throughput under injected verb loss and holder stalls),
``ext-phases`` (per-phase latency decomposition from typed spans) and
``ext-ablations`` (one modelled mechanism altered at a time).

Each experiment accepts a ``scale``:

* ``smoke`` — seconds; used by the test suite and CI shape checks.
* ``small`` — the default; minutes; same grid shape, reduced extent.
* ``paper`` — the full §6 grid (5/10/20 nodes, up to 12 threads/node).

Run from the command line::

    alock-experiments run fig1 fig5 --scale small
    alock-experiments list
"""

from repro.experiments.base import ExperimentResult, SCALES
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment

__all__ = [
    "ExperimentResult",
    "SCALES",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
]
