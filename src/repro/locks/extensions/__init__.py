"""Alternative designs from the paper's related-work discussion (§1, §7).

The paper motivates ALock by arguing the alternatives are inadequate;
this package implements them so the claims are *measured*, not cited:

* :class:`FilterLock` — Peterson's filter lock over RDMA (§7): correct
  with plain reads/writes only (no atomics needed), but needs n−1
  levels, remote spinning, and a number of remote operations
  proportional to the number of threads that *might* contend.
* :class:`BakeryLock` — Lamport's bakery over RDMA (§7): "demonstrates
  the same undesirable behavior".
* :class:`RpcLock` — the send/receive design of §1: every lock/unlock
  is an RPC to the lock's home-node server; trivially correct, but all
  ops pay two message traversals and serialize on the server CPU.
* :class:`MixedAtomicLock` — the naive one-word local-CAS + rCAS lock.
  Incorrect on RDMA (Table 1) but *correct and fast* on a cache-coherent
  interconnect — the CXL future the paper's §7 closes with; pair it
  with :func:`repro.rdma.config.cxl_config`.
"""

from repro.common.lazy import lazy_exports

# lazy, so making one kind loads none of the others' modules
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.locks.extensions.filter": ("FilterLock",),
    "repro.locks.extensions.bakery": ("BakeryLock",),
    "repro.locks.extensions.rpc_lock": ("RpcLock", "RpcLockService"),
    "repro.locks.extensions.coherent": ("MixedAtomicLock",),
})

__all__ = ["FilterLock", "BakeryLock", "RpcLock", "RpcLockService",
           "MixedAtomicLock"]
