"""Peterson's filter lock, ported to RDMA (paper §7).

The filter lock generalizes Peterson's algorithm to ``n`` threads with
``n − 1`` levels, each holding back one thread.  It needs only plain
reads and writes — attractive for RDMA, where mixed atomics are the
problem — but the paper dismisses it for exactly the costs this
implementation makes measurable:

* a thread climbs ``n − 1`` levels *even when running alone*;
* each level's wait re-reads up to ``n − 1`` other slots plus the
  victim word — all remote spinning;
* ``n`` is the number of threads that *might* contend, so the slot
  array must be provisioned for the worst case.

Memory layout on the home node: ``level[slots]`` then
``victim[slots]`` (victim index 0 unused), each word on its own cache
line to match the metadata-padding discipline.
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
from repro.memory.pointer import CACHE_LINE

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster, ThreadContext


class FilterLock(DistributedLock):
    """One filter lock with a fixed slot capacity.

    Args:
        max_slots: threads that may ever use this lock (n).  Slots are
            assigned on first acquisition; exceeding the capacity raises.
    """

    kind = "filter"

    def __init__(self, cluster: "Cluster", home_node: int, name: str = "",
                 max_slots: int = 8):
        super().__init__(cluster, home_node, name)
        if max_slots < 2:
            raise ConfigError("filter lock needs max_slots >= 2")
        self.max_slots = max_slots
        region = cluster.regions[home_node]
        self._level_ptrs = [region.alloc_ptr(CACHE_LINE) for _ in range(max_slots)]
        self._victim_ptrs = [region.alloc_ptr(CACHE_LINE) for _ in range(max_slots)]
        self._slots: dict[int, int] = {}
        # statistics
        self.spin_reads = 0

    def _slot_of(self, ctx: "ThreadContext") -> int:
        slot = self._slots.get(ctx.gid)
        if slot is None:
            if len(self._slots) >= self.max_slots:
                raise ConfigError(
                    f"{self.name}: more than max_slots={self.max_slots} "
                    f"distinct threads used this filter lock")
            slot = len(self._slots)
            self._slots[ctx.gid] = slot
        return slot

    @observed_acquire
    def lock(self, ctx: "ThreadContext"):
        me = self._slot_of(ctx)
        n = self.max_slots
        for lvl in range(1, n):
            yield from ctx.r_write(self._level_ptrs[me], lvl)
            yield from ctx.r_write(self._victim_ptrs[lvl], me + 1)
            while True:
                victim = yield from ctx.r_read(self._victim_ptrs[lvl])
                self.spin_reads += 1
                if victim != me + 1:
                    break
                blocked = False
                for k in range(n):
                    if k == me:
                        continue
                    other = yield from ctx.r_read(self._level_ptrs[k])
                    self.spin_reads += 1
                    if other >= lvl:
                        blocked = True
                        break
                if not blocked:
                    break
        yield ctx.fence()
        self._note_acquired(ctx, "(filter, slot %d)", me)

    @observed_release
    def unlock(self, ctx: "ThreadContext"):
        slot = self._slots.get(ctx.gid)
        if slot is None or self.holder_gid != ctx.gid:
            raise ProtocolError(f"{ctx.actor} unlocking {self.name} without holding it")
        yield ctx.fence()
        self._note_released(ctx)
        yield from ctx.r_write(self._level_ptrs[slot], 0)


register_lock_type("filter", FilterLock)
