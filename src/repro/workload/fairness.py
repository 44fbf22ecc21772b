"""Fairness metrics over per-thread completion counts.

The paper argues ALock is *fair* and *starvation-free* (budget policy,
§5) but reports only throughput and latency.  These helpers quantify
fairness directly so tests and ablations can assert it:

* **Jain's fairness index** over per-thread op counts — 1.0 when every
  thread completed the same amount, 1/n when one thread got everything;
* **min/max share ratio** — a blunter starvation signal;
* a per-class split (local vs remote threads' service) used by the
  budget ablation to show what a huge local budget does to the remote
  cohort.

numpy is imported by the functions that use it: ``repro.workload``
loads this module on every schedule walk's path, and a walk needs none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence


def jain_index(counts: Sequence[float]) -> float:
    """Jain's fairness index: ``(Σx)² / (n · Σx²)``; in [1/n, 1]."""
    import numpy as np

    x = np.asarray(list(counts), dtype=np.float64)
    if len(x) == 0:
        return float("nan")
    denom = len(x) * float(np.square(x).sum())
    if denom == 0:
        return 1.0  # nobody got anything: degenerately equal
    return float(np.square(x.sum()) / denom)


def min_max_share(counts: Sequence[float]) -> float:
    """min(count)/max(count); 0 signals starvation, 1 perfect equality."""
    import numpy as np

    x = np.asarray(list(counts), dtype=np.float64)
    if len(x) == 0:
        return float("nan")
    top = float(x.max())
    return float(x.min()) / top if top > 0 else 1.0


@dataclass(frozen=True)
class FairnessReport:
    """Fairness summary of one run."""

    jain: float
    min_max: float
    per_thread: dict

    @classmethod
    def from_per_thread_ops(cls, per_thread_ops: Mapping) -> "FairnessReport":
        counts = dict(per_thread_ops)
        values = list(counts.values())
        return cls(jain=jain_index(values), min_max=min_max_share(values),
                   per_thread=counts)

    def split_by_node(self) -> dict[int, int]:
        """Total ops per node (useful when cohorts map to nodes)."""
        by_node: dict[int, int] = {}
        for (node, _thread), ops in self.per_thread.items():
            by_node[node] = by_node.get(node, 0) + ops
        return by_node
