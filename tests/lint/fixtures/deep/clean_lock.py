"""Fixture: a correct minimal queue lock — zero deep findings.

Exercises every shape the deep rules police (descriptor lifecycle,
acquisition markers, a wait that registers before it checks) the
*right* way, so it doubles as a regression net against false positives.
"""

from repro.locks.base import DistributedLock

OFF_LOCKED = 8


class CleanLock(DistributedLock):
    def lock(self, ctx):
        desc = self._descriptor(ctx)
        desc.in_use = True
        try:
            yield from ctx.r_write(desc.locked_ptr, 1)
            yield from ctx.r_write(desc.next_ptr, 0)
            old = yield from ctx.r_cas(self.tail_ptr, 0, desc.ptr)
            if old != 0:
                yield from ctx.wait_local(desc.locked_ptr, lambda v: v == 0)
        except BaseException:
            desc.in_use = False
            raise
        self._note_acquired(ctx)

    def unlock(self, ctx):
        desc = self._descriptor(ctx)
        self._note_released(ctx)
        old = yield from ctx.r_cas(self.tail_ptr, desc.ptr, 0)
        if old != desc.ptr:
            nxt = yield from ctx.wait_local(desc.next_ptr, lambda p: p != 0)
            yield from ctx.r_write(nxt + OFF_LOCKED, 0)
        desc.in_use = False
