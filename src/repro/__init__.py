"""ALock reproduction: asymmetric lock primitive for RDMA systems.

Reproduction of *ALock: Asymmetric Lock Primitive for RDMA Systems*
(Baran, Nelson-Slivon, Tseng, Palmieri — SPAA 2024) on a deterministic
discrete-event simulation of an RDMA cluster.

Quick start::

    from repro import Cluster, ALock

    cluster = Cluster(n_nodes=2)
    lock = ALock(cluster, home_node=0)
    ctx = cluster.thread_ctx(node_id=0, thread_id=0)

    def client():
        yield from lock.lock(ctx)     # local access: zero RDMA verbs
        # ... critical section ...
        yield from lock.unlock(ctx)

    cluster.env.process(client())
    cluster.run()

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.sim` — discrete-event engine
* :mod:`repro.memory` — RDMA-registered memory + Table-1 race auditor
* :mod:`repro.rdma` — NIC / QPC-cache / fabric / verbs model
* :mod:`repro.cluster` — nodes and thread contexts
* :mod:`repro.locks` — ALock + spinlock and MCS baselines
* :mod:`repro.locktable` — the evaluation application
* :mod:`repro.faults` — fault plans, injector, retry policy
* :mod:`repro.workload` — workload specs, runner, metrics
* :mod:`repro.verification` — explicit-state checker for the TLA+ spec
* :mod:`repro.experiments` — one module per paper figure/table

The names below are re-exported lazily (:mod:`repro.common.lazy`):
importing this package loads none of those subpackages, and each name
imports its own module when it is first used.
"""

from repro.common.lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cluster": ("Cluster", "ThreadContext"),
    "repro.faults.plan": ("CrashWindow", "FaultPlan"),
    "repro.locks.alock": ("ALock",),
    "repro.locks.baselines.mcs": ("RdmaMcsLock",),
    "repro.locks.baselines.spinlock": ("RdmaSpinlock",),
    "repro.locks.base": ("make_lock",),
    "repro.locktable": ("DistributedLockTable",),
    "repro.rdma.config": ("CostModel", "FabricConfig", "NicConfig", "RdmaConfig"),
    "repro.workload.metrics": ("RunResult",),
    "repro.workload.spec": ("WorkloadSpec",),
    "repro.workload.runner": ("run_workload",),
})

__all__ = [
    "Cluster",
    "ThreadContext",
    "ALock",
    "RdmaSpinlock",
    "RdmaMcsLock",
    "make_lock",
    "DistributedLockTable",
    "FaultPlan",
    "CrashWindow",
    "WorkloadSpec",
    "RunResult",
    "run_workload",
    "RdmaConfig",
    "NicConfig",
    "FabricConfig",
    "CostModel",
    "__version__",
]
