"""Lamport's bakery algorithm, ported to RDMA (paper §7).

Like the filter lock, the bakery needs only plain reads and writes, and
the paper notes it "demonstrates the same undesirable behavior" for
remote threads: taking a ticket reads every slot (``n`` remote reads),
and the wait loop re-reads every other thread's ``choosing`` flag and
ticket — remote spinning with O(n) traffic per check.

Its one advantage over the filter lock — first-come-first-served
fairness by ticket order — is preserved and tested.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import ConfigError, ProtocolError
from repro.locks.base import DistributedLock, observed_acquire, observed_release
from repro.memory.pointer import CACHE_LINE

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster, ThreadContext


class BakeryLock(DistributedLock):
    """One bakery lock with a fixed slot capacity."""

    kind = "bakery"

    def __init__(self, cluster: "Cluster", home_node: int, name: str = "",
                 max_slots: int = 8):
        super().__init__(cluster, home_node, name)
        if max_slots < 2:
            raise ConfigError("bakery lock needs max_slots >= 2")
        self.max_slots = max_slots
        region = cluster.regions[home_node]
        self._choosing_ptrs = [region.alloc_ptr(CACHE_LINE) for _ in range(max_slots)]
        self._number_ptrs = [region.alloc_ptr(CACHE_LINE) for _ in range(max_slots)]
        self._slots: dict[int, int] = {}
        # statistics
        self.spin_reads = 0
        self.tickets_issued = 0

    def _slot_of(self, ctx: "ThreadContext") -> int:
        slot = self._slots.get(ctx.gid)
        if slot is None:
            if len(self._slots) >= self.max_slots:
                raise ConfigError(
                    f"{self.name}: more than max_slots={self.max_slots} "
                    f"distinct threads used this bakery lock")
            slot = len(self._slots)
            self._slots[ctx.gid] = slot
        return slot

    @observed_acquire
    def lock(self, ctx: "ThreadContext"):
        me = self._slot_of(ctx)
        n = self.max_slots
        # doorway: take a ticket greater than every ticket seen
        yield from ctx.r_write(self._choosing_ptrs[me], 1)
        highest = 0
        for k in range(n):
            ticket = yield from ctx.r_read(self._number_ptrs[k])
            highest = max(highest, ticket)
        my_ticket = highest + 1
        self.tickets_issued += 1
        yield from ctx.r_write(self._number_ptrs[me], my_ticket)
        yield from ctx.r_write(self._choosing_ptrs[me], 0)
        # wait for every earlier ticket
        for k in range(n):
            if k == me:
                continue
            while True:
                choosing = yield from ctx.r_read(self._choosing_ptrs[k])
                self.spin_reads += 1
                if not choosing:
                    break
            while True:
                ticket = yield from ctx.r_read(self._number_ptrs[k])
                self.spin_reads += 1
                if ticket == 0 or (ticket, k) > (my_ticket, me):
                    break
        yield ctx.fence()
        self._note_acquired(ctx, "(bakery, ticket %d)", my_ticket)

    @observed_release
    def unlock(self, ctx: "ThreadContext"):
        slot = self._slots.get(ctx.gid)
        if slot is None or self.holder_gid != ctx.gid:
            raise ProtocolError(f"{ctx.actor} unlocking {self.name} without holding it")
        yield ctx.fence()
        self._note_released(ctx)
        yield from ctx.r_write(self._number_ptrs[slot], 0)
