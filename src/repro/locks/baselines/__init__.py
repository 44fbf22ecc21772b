"""The paper's competitor locks (§6).

Both baselines use RDMA verbs for **all** lock operations regardless of
locality — a local access goes through the node's own RNIC via loopback,
exactly how RDMA systems without ALock keep local/remote atomicity.

* :class:`RdmaSpinlock` — "simply repeats RDMA rCAS until it succeeds";
  remote spinning generates fabric + NIC traffic proportional to wait
  time.
* :class:`RdmaMcsLock` — "an RDMA-aware queue integrated into the
  original MCS lock algorithm"; threads spin on their own descriptor
  via loopback reads and pass the lock with one rWrite.
"""

from repro.common.lazy import lazy_exports

# lazy, so making one kind loads neither the other nor its module
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.locks.baselines.spinlock": ("RdmaSpinlock",),
    "repro.locks.baselines.mcs": ("RdmaMcsLock",),
})

__all__ = ["RdmaSpinlock", "RdmaMcsLock"]
