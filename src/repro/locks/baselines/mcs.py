"""RDMA-ported MCS queue lock baseline (the paper's second competitor).

The original MCS algorithm with the queue held in RDMA memory, and —
per §6 — **every** operation performed through RDMA verbs regardless of
locality: descriptor initialization, the tail swap (an rCAS retry loop:
IB verbs have no atomic swap), linking behind the predecessor, and the
wait itself, which polls the thread's *own* descriptor through loopback
reads.  "Spinning locally" here means spinning on own-node memory via
the local RNIC, which still occupies the NIC's pipelines and PCIe — the
reason this baseline trails ALock even though its queue discipline
matches.

Passing the lock costs one rWrite of the successor's ``locked`` flag;
release with no successor is one rCAS of the tail — identical op counts
to the ALock's remote cohort, which is why the two track each other in
medium-contention, low-locality workloads (Fig. 6 e/h/k).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import ConfigError, ProtocolError
from repro.locks.base import DistributedLock, observed_acquire, observed_release
from repro.locks.layout import MCS_DESCRIPTOR_LAYOUT, MCS_LAYOUT
from repro.memory.pointer import ptr_addr

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster, ThreadContext

OFF_LOCKED = MCS_DESCRIPTOR_LAYOUT.offset_of("locked")
OFF_NEXT = MCS_DESCRIPTOR_LAYOUT.offset_of("next")


class _McsDescriptor:
    """Per-thread descriptor for the baseline (distinct from ALock's)."""

    def __init__(self, ctx: "ThreadContext"):
        self.ctx = ctx
        region = ctx.cluster.regions[ctx.node_id]
        self.ptr = region.alloc_ptr(MCS_DESCRIPTOR_LAYOUT.size)
        self.label = f"mcsdesc[{ctx.actor}]"
        addr = ptr_addr(self.ptr)
        region.label_word(addr + OFF_LOCKED, self.label + ".locked")
        region.label_word(addr + OFF_NEXT, self.label + ".next")
        self.in_use = False

    @property
    def locked_ptr(self) -> int:
        return self.ptr + OFF_LOCKED

    @property
    def next_ptr(self) -> int:
        return self.ptr + OFF_NEXT


def _descriptor(ctx: "ThreadContext") -> _McsDescriptor:
    desc = ctx._mcs_descriptor
    if desc is None:
        desc = _McsDescriptor(ctx)
        ctx._mcs_descriptor = desc
    return desc


class RdmaMcsLock(DistributedLock):
    """One MCS lock: a tail word on ``home_node``.

    Args:
        poll_interval_ns: extra delay between loopback polls of the spin
            flag; 0 (default) polls back-to-back, self-throttled by the
            loopback latency itself.
        bug: opt-in seeded defect for the schedule-exploration harness
            (see :data:`RdmaMcsLock.BUGS`); "" (default) is the correct
            algorithm.  Never set outside mutation tests.
    """

    kind = "mcs"

    #: Seeded schedule-dependent defect: ``lost_wakeup`` replaces the
    #: waiter's poll loop with check-then-park — the handoff write can
    #: land inside the poll's loopback round trip, after the target
    #: sampled the flag but before the waiter parks, and the waiter then
    #: sleeps on a word that will never be written again.
    BUGS = ("lost_wakeup",)

    def __init__(self, cluster: "Cluster", home_node: int, name: str = "",
                 poll_interval_ns: float = 0.0, bug: str = ""):
        super().__init__(cluster, home_node, name)
        if poll_interval_ns < 0:
            raise ConfigError("poll_interval_ns must be >= 0")
        if bug and bug not in self.BUGS:
            raise ConfigError(
                f"unknown seeded bug {bug!r}; known: {', '.join(self.BUGS)}")
        self.poll_interval_ns = float(poll_interval_ns)
        self.bug = bug
        self.base_ptr = cluster.alloc_on(home_node, MCS_LAYOUT.size)
        self.tail_ptr = MCS_LAYOUT.addr_of(self.base_ptr, "tail")
        cluster.regions[home_node].label_word(
            ptr_addr(self.tail_ptr), f"{self.name}.tail")
        self._sessions: dict[int, _McsDescriptor] = {}
        # statistics
        self.passes = 0
        self.spin_polls = 0

    def _poll(self, ctx: "ThreadContext", ptr: int, stop):
        """Loopback-poll ``ptr`` until ``stop(value)``; returns the value."""
        while True:
            value = yield from ctx.r_read(ptr)
            self.spin_polls += 1
            if stop(value):
                return value
            if self.poll_interval_ns > 0:
                yield self.poll_interval_ns

    def _buggy_wait(self, ctx: "ThreadContext", desc: _McsDescriptor):
        """Seeded ``lost_wakeup`` defect: poll the flag, then *park* on a
        memory watcher armed only after the poll returned.  The handoff
        rWrite can land during the poll's round trip — sampled too early
        to be seen, landed too early to trip the watcher — and the waiter
        sleeps forever (contrast ``wait_local``'s watcher-before-check
        ordering, which makes the correct path lost-wakeup free)."""
        region = ctx.cluster.regions[ctx.node_id]
        while True:
            value = yield from ctx.r_read(desc.locked_ptr)
            self.spin_polls += 1
            if value == 0:
                return
            if self.poll_interval_ns > 0:
                # The throttle the correct path applies *between* polls
                # here sits between the check and the park, stretching
                # the unprotected window by a full backoff period.
                yield self.poll_interval_ns
            # simlint: ignore[region-bypass] -- the raw park IS the seeded bug
            yield region.watch(ptr_addr(desc.locked_ptr))  # armed too late

    @observed_acquire
    def lock(self, ctx: "ThreadContext"):
        if ctx.gid in self._sessions:
            raise ProtocolError(f"{ctx.actor} re-locking {self.name}")
        desc = _descriptor(ctx)
        if desc.in_use:
            raise ProtocolError(
                f"{ctx.actor}: MCS descriptor reused while still enqueued")
        desc.in_use = True
        try:
            # Descriptor init — via RDMA (loopback), per the baseline's rules.
            yield from ctx.r_write(desc.locked_ptr, 1)
            yield from ctx.r_write(desc.next_ptr, 0)
            # Swap onto the tail (rCAS retry loop).
            expected = 0
            while True:
                old = yield from ctx.r_cas(self.tail_ptr, expected, desc.ptr)
                if old == expected:
                    break
                expected = old
            prev = expected
            if prev != 0:
                yield from ctx.r_write(prev + OFF_NEXT, desc.ptr)
                ctx.emit(ctx.actor, "lock.wait", self.name, "locked",
                         "loopback_poll", True)
                if self.bug == "lost_wakeup":
                    yield from self._buggy_wait(ctx, desc)
                else:
                    yield from self._poll(ctx, desc.locked_ptr,
                                          lambda v: v == 0)
                ctx.emit(ctx.actor, "lock.passed", self.name)
                self.passes += 1
        except BaseException:
            # Failed acquisition (a VerbTimeout from the fault layer, or an
            # interrupt mid-enqueue): the descriptor must come back, or this
            # thread can never enqueue again.
            desc.in_use = False
            raise
        yield ctx.fence()
        self._sessions[ctx.gid] = desc
        self._note_acquired(ctx)

    @observed_release
    def unlock(self, ctx: "ThreadContext"):
        desc = self._sessions.pop(ctx.gid, None)
        if desc is None:
            raise ProtocolError(f"{ctx.actor} unlocking {self.name} without holding it")
        yield ctx.fence()
        self._note_released(ctx)
        old = yield from ctx.r_cas(self.tail_ptr, desc.ptr, 0)
        if old != desc.ptr:
            ctx.emit(ctx.actor, "lock.wait", self.name, "next")
            nxt = yield from self._poll(ctx, desc.next_ptr, lambda v: v != 0)
            yield from ctx.r_write(nxt + OFF_LOCKED, 0)
        desc.in_use = False
