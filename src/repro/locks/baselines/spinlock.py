"""RDMA CAS spinlock baseline.

The simplest RDMA lock and the first competitor in §6: acquire by
repeating ``rCAS(word, 0, my_gid)`` until it succeeds, release with one
``rWrite(word, 0)``.  Every attempt is a full one-sided round trip —
through loopback when the lock is local — so waiting threads *remote
spin*, flooding the target NIC.  Under contention this is the lock that
collapses in Figs. 1, 5 and 6.

``backoff_ns`` adds truncated binary exponential backoff between failed
attempts (off by default, matching the paper's plain spinlock; the
``ext-ablations`` experiment turns it on to show backoff alone does not
close the gap to ALock).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import ConfigError, ProtocolError
from repro.locks.base import (
    DistributedLock,
    observed_acquire,
    observed_release,
    register_lock_type,
)
from repro.locks.layout import SPINLOCK_LAYOUT

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster, ThreadContext


class RdmaSpinlock(DistributedLock):
    """One spinlock: a single word on ``home_node`` (0 = free, else the
    holder's gid)."""

    kind = "spinlock"

    def __init__(self, cluster: "Cluster", home_node: int, name: str = "",
                 backoff_ns: float = 0.0, max_backoff_ns: float = 50_000.0):
        super().__init__(cluster, home_node, name)
        if backoff_ns < 0 or max_backoff_ns < 0:
            raise ConfigError("backoff parameters must be >= 0")
        self.backoff_ns = float(backoff_ns)
        self.max_backoff_ns = float(max_backoff_ns)
        self.base_ptr = cluster.alloc_on(home_node, SPINLOCK_LAYOUT.size)
        self.word_ptr = SPINLOCK_LAYOUT.addr_of(self.base_ptr, "word")
        from repro.memory.pointer import ptr_addr

        cluster.regions[home_node].label_word(
            ptr_addr(self.word_ptr), f"{self.name}.word")
        # statistics
        self.cas_attempts = 0

    @observed_acquire
    def lock(self, ctx: "ThreadContext"):
        attempts = 0
        while True:
            old = yield from ctx.r_cas(self.word_ptr, 0, ctx.gid)
            self.cas_attempts += 1
            attempts += 1
            if old == 0:
                break
            if old == ctx.gid:
                raise ProtocolError(f"{ctx.actor} re-locking {self.name}")
            if self.backoff_ns > 0:
                delay = min(self.backoff_ns * (1 << min(attempts, 16)),
                            self.max_backoff_ns)
                yield delay
        yield ctx.fence()
        self._note_acquired(ctx, "after %d rCAS", attempts)

    @observed_release
    def unlock(self, ctx: "ThreadContext"):
        if self.holder_gid != ctx.gid:
            raise ProtocolError(f"{ctx.actor} unlocking {self.name} without holding it")
        yield ctx.fence()
        # Oracle updated before the release op is issued (see base.py).
        self._note_released(ctx)
        yield from ctx.r_write(self.word_ptr, 0)


register_lock_type("spinlock", RdmaSpinlock)
