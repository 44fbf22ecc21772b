"""Result containers and latency statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.workload.spec import WorkloadSpec

# numpy is imported where a result is read, not here: repro.workload
# loads this module on every schedule walk's path, and a walk needs none
if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class LatencySummary:
    """Percentile summary of operation latencies (nanoseconds)."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    p999: float
    max: float

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "LatencySummary":
        import numpy as np

        if len(samples) == 0:
            return cls(0, float("nan"), float("nan"), float("nan"),
                       float("nan"), float("nan"), float("nan"))
        p50, p90, p99, p999 = np.percentile(samples, [50, 90, 99, 99.9])
        return cls(len(samples), float(samples.mean()), float(p50),
                   float(p90), float(p99), float(p999), float(samples.max()))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.count == 0:
            return "no samples"
        return (f"n={self.count} mean={self.mean:.0f}ns p50={self.p50:.0f} "
                f"p90={self.p90:.0f} p99={self.p99:.0f} max={self.max:.0f}")


@dataclass
class RunResult:
    """Everything one workload run produced.

    ``latencies_ns`` holds one sample per operation completed inside the
    measurement window (lock-start to unlock-return, matching the
    paper's "one lock and one unlock" operation definition).
    ``local_mask`` marks which samples were local accesses, so Fig. 6
    style CDFs can be segmented.  ``per_thread_ops`` counts each
    thread's operations inside the window (duration mode) or its full
    quota (count mode) — the input to the fairness metrics.
    """

    spec: WorkloadSpec
    completed_ops: int
    measured_ops: int
    window_ns: float
    latencies_ns: np.ndarray
    local_mask: np.ndarray
    per_thread_ops: dict[tuple[int, int], int]
    atomicity_violations: int
    nic_stats: list[dict] = field(default_factory=list)
    verb_counts: dict = field(default_factory=dict)
    loopback_verbs: int = 0
    #: fault-layer counters (injector + lock-table recovery + client
    #: outcomes); empty when the run had no active FaultPlan.
    fault_stats: dict = field(default_factory=dict)
    #: finished spans replayed from the run's event log (empty unless the
    #: run recorded at the ``INTERVALS`` level).
    spans: list = field(default_factory=list)
    #: MetricsRegistry.collect() tree snapshot taken at run end (empty
    #: below ``INTERVALS``).
    obs_metrics: dict = field(default_factory=dict)
    #: events the log's capacity evicted (``EventLog.dropped``): non-zero
    #: means the oldest spans, and their histogram samples, are missing.
    dropped_events: int = 0

    @property
    def retry_count(self) -> int:
        """Verb retransmissions the fault layer performed (0 = fault-free)."""
        return int(self.fault_stats.get("retries", 0))

    @property
    def recovery_count(self) -> int:
        """Recovery events: lease expirations observed by waiters plus
        verbs that exhausted their retry budget."""
        return int(self.fault_stats.get("lease_expirations", 0)
                   + self.fault_stats.get("verb_timeouts", 0))

    @property
    def throughput_ops_per_sec(self) -> float:
        """Operations per second over the measurement window."""
        if self.window_ns <= 0:
            return 0.0
        return self.measured_ops / (self.window_ns * 1e-9)

    @property
    def latency(self) -> LatencySummary:
        return LatencySummary.from_samples(self.latencies_ns)

    @property
    def remote_latency(self) -> LatencySummary:
        return LatencySummary.from_samples(self.latencies_ns[~self.local_mask])

    def latency_cdf(self, *, subset: Optional[str] = None,
                    points: int = 200) -> tuple[np.ndarray, np.ndarray]:
        """(latency values, cumulative probability) pairs for CDF plots.

        Args:
            subset: None for all ops, "local"/"remote" to segment.
            points: downsample to at most this many curve points.
        """
        import numpy as np

        if subset == "local":
            samples = self.latencies_ns[self.local_mask]
        elif subset == "remote":
            samples = self.latencies_ns[~self.local_mask]
        else:
            samples = self.latencies_ns
        if len(samples) == 0:
            return np.empty(0), np.empty(0)
        ordered = np.sort(samples)
        probs = np.arange(1, len(ordered) + 1) / len(ordered)
        if len(ordered) > points:
            idx = np.linspace(0, len(ordered) - 1, points).astype(np.int64)
            ordered, probs = ordered[idx], probs[idx]
        return ordered, probs

    def lock_ops(self) -> list:
        """Phase-decomposed lock operations extracted from :attr:`spans`
        (see :mod:`repro.obs.phases`); empty when spans were off."""
        from repro.obs.phases import extract_operations

        return extract_operations(self.spans)

    def summary_row(self) -> dict:
        """Flat dict for tabular experiment reports."""
        from repro.workload.fairness import jain_index

        lat = self.latency
        jain = jain_index(list(self.per_thread_ops.values()))
        row = {
            "lock": self.spec.lock_kind,
            "nodes": self.spec.n_nodes,
            "threads_per_node": self.spec.threads_per_node,
            "locks": self.spec.n_locks,
            "locality_pct": self.spec.locality_pct,
            "throughput_ops": round(self.throughput_ops_per_sec),
            "lat_p50_ns": round(lat.p50) if lat.count else None,
            "lat_p99_ns": round(lat.p99) if lat.count else None,
            "lat_p999_ns": round(lat.p999) if lat.count else None,
            "jain": round(jain, 4) if jain == jain else None,
            "measured_ops": self.measured_ops,
            "loopback_verbs": self.loopback_verbs,
            "violations": self.atomicity_violations,
        }
        if self.fault_stats:
            row["retries"] = self.retry_count
            row["recoveries"] = self.recovery_count
        return row
