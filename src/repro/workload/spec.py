"""Workload specification."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro.common.errors import ConfigError
from repro.rdma.config import RdmaConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan


@dataclass(frozen=True)
class WorkloadSpec:
    """Full description of one lock-table experiment run.

    The paper's §6 axes:

    Attributes:
        n_nodes: cluster size (5 / 10 / 20 in the paper).
        threads_per_node: application threads per node (1..12).
        n_locks: table size — logical contention (20 high / 100 medium /
            1000 low).
        locality_pct: percent of operations targeting locks homed on the
            calling thread's node (85 / 90 / 95 / 100).
        lock_kind: "alock" / "spinlock" / "mcs" (or any registered type).
        lock_options: forwarded to the lock factory (budgets etc.).

    Execution control:

    Attributes:
        ops_per_thread: count mode — exact ops per client (0 = disabled).
        warmup_ns / measure_ns: duration mode — measurement window
            boundaries (used when ``ops_per_thread == 0``).
        think_ns: idle time between operations.
        cs_ns: fixed critical-section work time.
        cs_counter: run the guarded-counter increment in the CS (needed
            for lost-update verification; adds memory-op time).
        distribution: lock choice within the locality class — "uniform"
            or "zipfian" (``zipf_theta`` skew, an extension workload).
        seed: root seed; everything derives from it deterministically.
        audit: Table-1 auditing mode; "off" removes the bookkeeping cost
            from big benchmark runs.

    Fault injection and cost model:

    Attributes:
        faults: optional :class:`~repro.faults.FaultPlan`.  An active
            plan arms verb loss/spike/crash injection with retransmission
            in the RDMA plane, holder-stall injection in the clients, and
            (via ``faults.lease_ns``) lease-based stall detection in the
            lock table.  ``None`` — and any plan with every knob at
            zero — runs the exact fault-free code path.
        config: the cluster's :class:`~repro.rdma.config.RdmaConfig`
            cost model (default: the CX-3 calibration).
    """

    n_nodes: int = 2
    threads_per_node: int = 1
    n_locks: int = 4
    locality_pct: float = 100.0
    lock_kind: str = "alock"
    lock_options: tuple = ()
    ops_per_thread: int = 0
    warmup_ns: float = 200_000.0
    measure_ns: float = 2_000_000.0
    think_ns: float = 0.0
    cs_ns: float = 0.0
    cs_counter: bool = False
    distribution: str = "uniform"
    zipf_theta: float = 0.99
    seed: int = 0
    audit: str = "off"
    faults: Optional[FaultPlan] = None
    config: RdmaConfig = RdmaConfig()

    def __post_init__(self) -> None:
        if self.faults is not None:
            # the fault layer loads only for a run that carries a plan
            from repro.faults import FaultPlan

            if not isinstance(self.faults, FaultPlan):
                raise ConfigError(
                    f"faults must be a FaultPlan or None, got {self.faults!r}")
        if not isinstance(self.config, RdmaConfig):
            raise ConfigError(
                f"config must be an RdmaConfig, got {self.config!r}")
        if self.n_nodes < 1:
            raise ConfigError("n_nodes must be >= 1")
        if self.threads_per_node < 1:
            raise ConfigError("threads_per_node must be >= 1")
        if self.n_locks < self.n_nodes:
            raise ConfigError("n_locks must be >= n_nodes")
        if not 0.0 <= self.locality_pct <= 100.0:
            raise ConfigError("locality_pct must be in [0, 100]")
        if self.locality_pct < 100.0 and self.n_nodes < 2:
            raise ConfigError("remote accesses require at least 2 nodes")
        if self.ops_per_thread < 0:
            raise ConfigError("ops_per_thread must be >= 0")
        if self.ops_per_thread == 0 and self.measure_ns <= 0:
            raise ConfigError("duration mode needs measure_ns > 0")
        if self.warmup_ns < 0:
            raise ConfigError(f"warmup_ns must be >= 0, got {self.warmup_ns}")
        if self.think_ns < 0:
            raise ConfigError(f"think_ns must be >= 0, got {self.think_ns}")
        if self.cs_ns < 0:
            raise ConfigError(f"cs_ns must be >= 0, got {self.cs_ns}")
        if self.distribution not in ("uniform", "zipfian"):
            raise ConfigError(f"unknown distribution {self.distribution!r}")
        if not 0 <= self.zipf_theta < float("inf"):  # NaN fails too
            raise ConfigError(f"zipf_theta must be finite and >= 0, "
                              f"got {self.zipf_theta}")
        if isinstance(self.lock_options, dict):
            # Accept dicts for convenience; store hashable form.
            object.__setattr__(self, "lock_options",
                               tuple(sorted(self.lock_options.items())))

    @property
    def total_threads(self) -> int:
        return self.n_nodes * self.threads_per_node

    @property
    def options_dict(self) -> dict:
        return dict(self.lock_options)

    def with_(self, **overrides) -> "WorkloadSpec":
        """A modified copy."""
        return replace(self, **overrides)

    def label(self) -> str:
        """Compact human-readable id used in experiment tables."""
        return (f"{self.lock_kind} n{self.n_nodes}x{self.threads_per_node} "
                f"locks={self.n_locks} loc={self.locality_pct:g}%")
