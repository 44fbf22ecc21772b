"""Fixture: the PR 4 ``no_victim_check`` mutation shape — the Peterson
waiter watches the victim word none of its clauses reads.

Expected: deep-protocol (P1) at the ``wait_local_cond`` call.
"""

from repro.locks.base import DistributedLock

COHORT_LOCAL = 1


class NoVictimCheckLock(DistributedLock):
    def lock(self, ctx):
        yield from ctx.write(self.victim_ptr, COHORT_LOCAL)
        yield from ctx.wait_local_cond(
            [self.tail_ptr, self.victim_ptr],
            ((self.tail_ptr, lambda tail: tail == 0, "unlocked"),))
        self._note_acquired(ctx)

    def unlock(self, ctx):
        self._note_released(ctx)
        yield from ctx.write(self.tail_ptr, 0)
