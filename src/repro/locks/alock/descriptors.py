"""MCS descriptors (paper Algorithm 1).

Each thread owns exactly **two** descriptors for its entire lifetime —
one used when it is in the local cohort of some ALock, one for the
remote cohort (Algorithm 1 allocates one ``LocalDescriptor`` and one
``RemoteDescriptor`` per thread).  One pair suffices because a thread
waits on or holds at most one lock at a time; the pair enforces that
invariant and raises :class:`ProtocolError` on violations instead of
corrupting a queue.

Descriptors live in the *owner's* node memory: the owner spins on
``budget`` with local reads while the predecessor — who may be anywhere —
writes it (remotely for the remote cohort).  That placement is what makes
"spin locally" possible for both cohorts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import ProtocolError
from repro.locks.layout import DESCRIPTOR_LAYOUT
from repro.memory.pointer import RdmaPointer, ptr_addr

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import ThreadContext

#: Sentinel budget meaning "enqueued, waiting for the lock to be passed".
WAITING = -1

OFF_BUDGET = DESCRIPTOR_LAYOUT.offset_of("budget")
OFF_NEXT = DESCRIPTOR_LAYOUT.offset_of("next")


class Descriptor:
    """One thread's descriptor for one cohort flavor."""

    __slots__ = ("ctx", "flavor", "ptr", "budget_ptr", "next_ptr", "label",
                 "in_use")

    def __init__(self, ctx: "ThreadContext", flavor: str):
        self.ctx = ctx
        self.flavor = flavor  # "local" | "remote"
        region = ctx.cluster.regions[ctx.node_id]
        self.ptr = region.alloc_ptr(DESCRIPTOR_LAYOUT.size)
        self.budget_ptr = self.ptr + OFF_BUDGET
        self.next_ptr = self.ptr + OFF_NEXT
        self.label = f"desc[{ctx.actor}:{flavor}]"
        addr = ptr_addr(self.ptr)
        region.label_word(addr + OFF_BUDGET, self.label + ".budget")
        region.label_word(addr + OFF_NEXT, self.label + ".next")
        self.in_use = False

    def begin(self) -> None:
        """Claim the descriptor for a fresh enqueue.  The reset itself
        (Algorithm 3 line 2: budget = -1, next = NULL) is the caller's
        two private stores — the descriptor is the thread's own memory.
        Not reported: the swap that publishes the descriptor names it
        (``mcs.swap``)."""
        if self.in_use:
            raise ProtocolError(
                f"{self.ctx.actor}: {self.flavor} descriptor reused while still "
                f"enqueued (a thread can wait on only one lock at a time)")
        self.in_use = True

    def end(self) -> None:
        # Not reported either: a descriptor's retirement is implied by
        # the lock.released that precedes it, and a per-acquisition event
        # here would spend the ring's <3% budget (see repro.obs.flight).
        self.in_use = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Descriptor {self.flavor} of {self.ctx.actor} at {RdmaPointer(self.ptr)}>"


def descriptor_pair(ctx: "ThreadContext") -> tuple[Descriptor, Descriptor]:
    """The thread's (local, remote) descriptor pair, allocated lazily on
    first use and cached on the context."""
    pair = ctx._alock_descriptors
    if pair is None:
        pair = (Descriptor(ctx, "local"), Descriptor(ctx, "remote"))
        ctx._alock_descriptors = pair
    return pair
