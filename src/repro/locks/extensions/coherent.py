"""The naive mixed-atomics lock — wrong on RDMA, right on CXL (§7).

``MixedAtomicLock`` is the one-word design everybody writes first: local
threads take the lock with a shared-memory CAS, remote threads with
rCAS, on the *same* word.  Table 1 forbids exactly that pair, and under
the default RDMA cost model the race auditor flags it (the
``atomicity_pitfalls`` example shows the resulting lost updates).

The paper's closing discussion (§7) notes that cache-coherent
interconnects like CXL would make local and remote atomics mutually
atomic, removing the need for ALock's machinery — at whatever
latency/coherence price the hardware exacts.  :func:`cxl_config`
models that future: the remote-RMW window collapses to zero (the
interconnect serializes it against local ops) and fabric latency drops
to load/store-ish scale.  Under that config this lock is correct, and
the ``ext-related`` experiment's CXL outlook
(:mod:`repro.experiments.ext_related_work`) measures how close it gets
to ALock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import ProtocolError
from repro.locks.base import (
    DistributedLock,
    observed_acquire,
    observed_release,
    register_lock_type,
)
from repro.locks.layout import SPINLOCK_LAYOUT
from repro.rdma.config import RdmaConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster, ThreadContext


def cxl_config() -> RdmaConfig:
    """A CXL-like coherent interconnect: atomic remote RMWs (zero
    read→write window) and sub-microsecond fabric latency.  Values follow
    published CXL.mem load latencies (~300–600 ns access)."""
    return (RdmaConfig()
            .with_nic(atomic_window_ns=0.0, loopback_turnaround_ns=0.0)
            .with_fabric(one_way_latency_ns=250.0))


class MixedAtomicLock(DistributedLock):
    """One lock word; local CAS for co-located threads, rCAS otherwise.

    CORRECTNESS CAVEAT: sound only on a coherent interconnect
    (``cxl_config``).  On the default RDMA model the Table-1 auditor
    records violations and mutual exclusion can break — which is the
    point of shipping it: the hazard is executable.
    """

    kind = "mixedcas"

    def __init__(self, cluster: "Cluster", home_node: int, name: str = ""):
        super().__init__(cluster, home_node, name)
        self.base_ptr = cluster.alloc_on(home_node, SPINLOCK_LAYOUT.size)
        self.word_ptr = SPINLOCK_LAYOUT.addr_of(self.base_ptr, "word")
        self.cas_attempts = 0
        self.overlap_oracle = 0
        self._in_cs = 0

    @observed_acquire
    def lock(self, ctx: "ThreadContext"):
        local = ctx.is_local(self.word_ptr)
        while True:
            if local:
                old = yield from ctx.cas(self.word_ptr, 0, ctx.gid)
            else:
                old = yield from ctx.r_cas(self.word_ptr, 0, ctx.gid)
            self.cas_attempts += 1
            if old == 0:
                break
        yield ctx.fence()
        # Oracle bookkeeping WITHOUT the strict holder assertion: on a
        # non-coherent fabric this lock is *expected* to double-grant, and
        # we want to count that instead of crashing the simulation.
        self._in_cs += 1
        if self._in_cs > 1:
            self.overlap_oracle += 1
        self._holder_gid = ctx.gid
        self.acquisitions += 1
        ctx.emit(ctx.actor, "lock.acquired", self.name, "(mixedcas)")

    @observed_release
    def unlock(self, ctx: "ThreadContext"):
        if self._in_cs <= 0:
            raise ProtocolError(f"{ctx.actor} unlocking {self.name} without holding it")
        yield ctx.fence()
        self._in_cs -= 1
        self._holder_gid = 0
        ctx.emit(ctx.actor, "lock.released", self.name)
        if ctx.is_local(self.word_ptr):
            yield from ctx.write(self.word_ptr, 0)
        else:
            yield from ctx.r_write(self.word_ptr, 0)


register_lock_type("mixedcas", MixedAtomicLock)
