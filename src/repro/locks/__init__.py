"""Distributed lock primitives.

* :class:`~repro.locks.alock.ALock` — the paper's contribution: the
  hierarchical local/remote-cohort lock (budgeted MCS queues embedded in
  a modified Peterson's algorithm).
* :class:`~repro.locks.baselines.RdmaSpinlock` — the rCAS-retry spinlock
  the paper compares against (all ops via RDMA, loopback for local
  memory).
* :class:`~repro.locks.baselines.RdmaMcsLock` — the RDMA-ported MCS
  queue lock baseline.

All locks share the :class:`~repro.locks.base.DistributedLock` interface:
``lock(ctx)``/``unlock(ctx)`` generators driven inside simulation
processes.  ``make_lock`` builds any of them by name — the experiment
harness's extension point — and imports a kind's module only when a
lock of that kind is first made; the names below are re-exported
lazily (:mod:`repro.common.lazy`), so importing this package loads no
lock implementation.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.locks.base": ("DistributedLock", "LOCK_TYPES", "make_lock",
                         "register_lock_type"),
    "repro.locks.layout": ("ALOCK_LAYOUT", "COHORT_LOCAL", "COHORT_REMOTE",
                           "DESCRIPTOR_LAYOUT", "MCS_LAYOUT", "SPINLOCK_LAYOUT"),
    "repro.locks.alock": ("ALock",),
    "repro.locks.baselines.mcs": ("RdmaMcsLock",),
    "repro.locks.baselines.spinlock": ("RdmaSpinlock",),
    "repro.locks.extensions.bakery": ("BakeryLock",),
    "repro.locks.extensions.coherent": ("MixedAtomicLock",),
    "repro.locks.extensions.filter": ("FilterLock",),
    "repro.locks.extensions.rpc_lock": ("RpcLock",),
})

__all__ = [
    "DistributedLock",
    "make_lock",
    "register_lock_type",
    "LOCK_TYPES",
    "ALock",
    "RdmaSpinlock",
    "RdmaMcsLock",
    "FilterLock",
    "BakeryLock",
    "RpcLock",
    "MixedAtomicLock",
    "ALOCK_LAYOUT",
    "DESCRIPTOR_LAYOUT",
    "SPINLOCK_LAYOUT",
    "MCS_LAYOUT",
    "COHORT_LOCAL",
    "COHORT_REMOTE",
]
