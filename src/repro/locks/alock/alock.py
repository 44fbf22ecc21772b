"""The ALock (paper §5, Algorithms 1–4).

``Lock()`` first classifies the access by the pointer's home node
(local vs remote — Definitions 4.1/4.2), then

1. competes in that cohort's budgeted **MCS queue** (Algorithm 3): swap
   the thread's descriptor onto the cohort tail; if the queue was empty
   the thread leads the cohort, otherwise it links behind its
   predecessor and spins *locally* on its descriptor's budget until the
   lock is passed;
2. if it leads the cohort (queue was empty), or if it was passed a
   budget of 0 (cohort must yield), competes in the modified
   **Peterson's algorithm** (Algorithm 4) against the other cohort's
   leader.

``Unlock()`` CASes the cohort tail back to NULL — which simultaneously
clears the Peterson flag — or, if a successor has queued, passes the
lock by writing ``budget − 1`` into the successor's descriptor.

The atomicity discipline (why this is correct without loopback): every
ALock word is RMW'd by at most one *API family* — ``tail_l`` only by
local CAS, ``tail_r`` only by rCAS, ``victim`` only by plain
(local or remote) reads/writes; descriptor words see plain writes by the
predecessor and plain reads by the owner.  Only the 'Yes' cells of
Table 1 are ever exercised, which the cluster's race auditor verifies on
every test run.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.cluster import Cluster, ThreadContext
from repro.common.errors import ConfigError, ProtocolError
from repro.locks.alock import peterson
from repro.locks.alock.descriptors import (
    Descriptor,
    OFF_BUDGET,
    OFF_NEXT,
    WAITING,
    descriptor_pair,
)
from repro.locks.base import DistributedLock, observed_acquire, observed_release
from repro.locks.layout import ALOCK_LAYOUT
from repro.memory.pointer import ptr_addr
from repro.obs.log import PETERSON_WAIT

#: Paper's chosen budgets after the Fig. 4 sweep (§6.1).
DEFAULT_LOCAL_BUDGET = 5
DEFAULT_REMOTE_BUDGET = 20


class _Cohort(NamedTuple):
    """What tells one cohort's queue from the other's.  The paper states
    Algorithm 3 once and gets the local cohort by "replacing each remote
    access with a local one"; so the accesses are data.  The callables
    take the context first: ``cohort.tail_cas(ctx, ptr, expected, new)``,
    and call its method on the instance, as ``peterson.py`` and the lock
    table do, so a :class:`ThreadContext` subclass changes every access."""

    name: str                 #: "local" | "remote" — event field, stats key
    tail_ptr: int             #: the cohort's MCS tail == its Peterson flag
    budget: int               #: consecutive passes before the cohort yields
    tail_cas: Callable        #: the one RMW family allowed on ``tail_ptr``
    neighbor_write: Callable  #: store into a queue neighbor's descriptor
    acquire_global: Callable  #: this cohort leader's side of Algorithm 4


_CAS, _R_CAS = (lambda ctx, ptr, old, new, *, carry=0.0: ctx.cas(ptr, old, new, carry=carry),
                lambda ctx, ptr, old, new, *, carry=0.0: ctx.r_cas(ptr, old, new, carry=carry))
_WRITE, _R_WRITE = (lambda ctx, ptr, value: ctx.write(ptr, value),
                    lambda ctx, ptr, value: ctx.r_write(ptr, value))


def _shortcut_write(ctx: ThreadContext, ptr: int, value: int):
    """The non-strict ablation's neighbor write: same-node descriptors
    are written through shared memory instead of loopback."""
    return ctx.write(ptr, value) if ctx.is_local(ptr) else ctx.r_write(ptr, value)


class ALock(DistributedLock):
    """One ALock instance: a 64-byte record on ``home_node``.

    Args:
        cluster: the cluster to allocate in.
        home_node: node holding the lock record (locality is judged
            against this).
        local_budget: consecutive local-cohort passes before yielding.
        remote_budget: consecutive remote-cohort passes before yielding.
        strict_remote_rdma: when True (Algorithm 3 verbatim), the remote
            cohort uses RDMA verbs for *all* its lock interactions, even
            when a queue neighbor's descriptor happens to live on the
            caller's own node (loopback).  False short-circuits those to
            shared-memory ops — an ablation, not the paper's algorithm.
        bug: opt-in seeded defect for the schedule-exploration harness
            (see :data:`ALock.BUGS`); "" (default) is the correct
            algorithm.  Never set outside mutation tests.
    """

    kind = "alock"

    #: Seeded schedule-dependent defects (mutation-testing targets):
    #: ``no_victim_check`` drops the victim clause from the local
    #: leader's Peterson wait (classic deadlock when the victim word
    #: settles on the other cohort); ``skip_budget_wait`` makes unlock
    #: sample the successor link once instead of waiting for it,
    #: abandoning the budget handoff when the successor is still inside
    #: its swap-to-link window.
    BUGS = ("no_victim_check", "skip_budget_wait")

    def __init__(self, cluster: "Cluster", home_node: int, name: str = "",
                 local_budget: int = DEFAULT_LOCAL_BUDGET,
                 remote_budget: int = DEFAULT_REMOTE_BUDGET,
                 strict_remote_rdma: bool = True, bug: str = ""):
        super().__init__(cluster, home_node, name)
        if local_budget < 1 or remote_budget < 1:
            raise ConfigError("budgets must be >= 1 (0 would deadlock the cohort)")
        if bug and bug not in self.BUGS:
            raise ConfigError(
                f"unknown seeded bug {bug!r}; known: {', '.join(self.BUGS)}")
        self.local_budget = local_budget
        self.remote_budget = remote_budget
        self.strict_remote_rdma = strict_remote_rdma
        self.bug = bug
        self.base_ptr = cluster.alloc_on(home_node, ALOCK_LAYOUT.size)
        self.tail_r_ptr = ALOCK_LAYOUT.addr_of(self.base_ptr, "tail_r")
        self.tail_l_ptr = ALOCK_LAYOUT.addr_of(self.base_ptr, "tail_l")
        self.victim_ptr = ALOCK_LAYOUT.addr_of(self.base_ptr, "victim")
        # name the record's words so watch events, deadlock messages and
        # post-mortem wait-for graphs say "alock[k7].tail_l", not 0x1040
        region = cluster.regions[home_node]
        region.label_word(ptr_addr(self.tail_r_ptr), f"{self.name}.tail_r")
        region.label_word(ptr_addr(self.tail_l_ptr), f"{self.name}.tail_l")
        region.label_word(ptr_addr(self.victim_ptr), f"{self.name}.victim")
        # Indexed by lock()'s slot.  A local thread's queue neighbors are
        # necessarily on its own node; the remote cohort (Algorithm 3
        # verbatim) uses ``rWrite`` unconditionally unless the ablation
        # short-circuits same-node targets.
        self._cohorts = (
            _Cohort("local", self.tail_l_ptr, local_budget, _CAS, _WRITE,
                    peterson.acquire_local),
            _Cohort("remote", self.tail_r_ptr, remote_budget, _R_CAS,
                    _R_WRITE if strict_remote_rdma else _shortcut_write,
                    peterson.acquire_remote),
        )
        self._sessions: dict[int, tuple[int, Descriptor]] = {}
        # statistics (per-lock protocol behaviour, used by ablations)
        self.passes = {"local": 0, "remote": 0}
        self.reacquires = {"local": 0, "remote": 0}
        self.leader_acquires = {"local": 0, "remote": 0}

    # -- public protocol ----------------------------------------------------
    @observed_acquire
    def lock(self, ctx: "ThreadContext"):
        """Algorithm 2 ``Lock(rdma_ptr<ALock>)``."""
        if ctx.gid in self._sessions:
            raise ProtocolError(f"{ctx.actor} re-locking {self.name} (not reentrant)")
        slot = 0 if ctx.node_id == self.home_node else 1
        desc = descriptor_pair(ctx)[slot]
        # begin() runs before the cleanup guard: if it raises, the
        # descriptor is owned by another in-flight acquisition and must
        # NOT be reset or handed back here.
        desc.begin()
        try:
            # Algorithm 3 line 2: reset our own descriptor for the enqueue.
            # Nobody can reach it before the swap publishes it, so the
            # stores are private: their cost rides with the swap's sleep.
            carry = (ctx.private_write(desc.budget_ptr, WAITING)
                     + ctx.private_write(desc.next_ptr, 0))
            carry = yield from self._acquire_cohort(
                ctx, desc, self._cohorts[slot], carry)
        except BaseException:
            # Failed acquisition (e.g. a VerbTimeout from the fault
            # layer): the descriptor must come back, or the paper's
            # one-descriptor discipline wedges the thread permanently.
            desc.end()
            raise
        # §5.2: atomic thread fence after locking (with a reacquirer's
        # private budget store, which has no visible step to ride with
        # before the critical section).
        yield carry + ctx.fence()
        self._sessions[ctx.gid] = (slot, desc)
        self._note_acquired(ctx)

    @observed_release
    def unlock(self, ctx: "ThreadContext"):
        """Algorithm 2 ``Unlock(rdma_ptr<ALock>)``."""
        session = self._sessions.pop(ctx.gid, None)
        if session is None:
            raise ProtocolError(f"{ctx.actor} unlocking {self.name} without holding it")
        slot, desc = session
        # The oracle is updated when the critical section ends, before the
        # release op is issued: the op's linearization point is when it
        # *lands*, which a successor can observe before this generator
        # resumes (see base.py).
        self._note_released(ctx)
        # §5.2: atomic thread fence before unlocking; it applies nothing,
        # so it rides with the release op's sleep.
        yield from self._release_cohort(ctx, desc, self._cohorts[slot],
                                        ctx.fence())

    # -- one cohort's budgeted MCS queue (Algorithm 3) ----------------------
    def _acquire_cohort(self, ctx: ThreadContext, desc: Descriptor, cohort: _Cohort,
                        carry: float):
        """``qLock`` and, for a leader, Algorithm 2's ``pLock``: returns
        holding the lock, won through Peterson or passed by a predecessor.
        ``carry`` is the cost of the private steps before the swap; the
        return value is the cost of those after the last visible step."""
        # Atomic swap emulated by a CAS retry loop (IB verbs have CAS
        # and FAA but no swap); ``prev`` ends as the previous tail.
        expected = 0
        while True:
            prev = yield from cohort.tail_cas(ctx, cohort.tail_ptr, expected, desc.ptr,
                                              carry=carry)
            carry = 0.0
            if prev == expected:
                break
            expected = prev
        # Names the descriptor it published, and reports the wait its
        # outcome opens (repro.obs.log.swap_wait): a leader's in Peterson
        # — Algorithm 2 runs pLock exactly when qLock returned "not
        # passed" — a follower's on its budget word.
        ctx.emit(ctx.actor, "mcs.swap", self.name, cohort.name, prev, desc.label)
        if prev == 0:
            # Queue was empty: cohort leader; lock was NOT passed.  Only
            # this thread reads its budget word, and nobody writes it
            # until the lock is passed on: a private store.
            carry = ctx.private_write(desc.budget_ptr, cohort.budget)
            self.leader_acquires[cohort.name] += 1
            yield from cohort.acquire_global(ctx, self, carry)
            return 0.0
        # Link behind the predecessor, then spin locally on our budget.
        yield from cohort.neighbor_write(ctx, prev + OFF_NEXT, desc.ptr)
        budget = yield from ctx.wait_local(
            desc.budget_ptr, lambda b: b != WAITING, signed=True)
        self.passes[cohort.name] += 1
        ctx.emit(ctx.actor, "mcs.passed", self.name, cohort.name, budget)
        if budget == 0:
            # Budget exhausted: yield to the other cohort, then reacquire.
            self.reacquires[cohort.name] += 1
            ctx.emit(ctx.actor, "lock.wait", self.name, PETERSON_WAIT[cohort.name],
                     "cohort", cohort.name)
            yield from cohort.acquire_global(ctx, self)
            return ctx.private_write(desc.budget_ptr, cohort.budget)
        return 0.0

    def _release_cohort(self, ctx: ThreadContext, desc: Descriptor, cohort: _Cohort,
                        carry: float):
        """``qUnlock``: clear the tail, or pass the lock to the successor.
        ``carry`` is the cost of the private steps before the tail CAS."""
        old = yield from cohort.tail_cas(ctx, cohort.tail_ptr, desc.ptr, 0, carry=carry)
        if old != desc.ptr:
            # A successor is enqueued (or still linking): wait for the
            # link, then pass the lock with a decremented budget.
            if self.bug == "skip_budget_wait":
                # Seeded defect: sample the link once instead of waiting.
                # Fires only when the unlock lands inside the successor's
                # swap-to-link window — the successor then spins forever
                # on a budget nobody will write.
                nxt = yield from ctx.read(desc.next_ptr)
                if nxt == 0:
                    ctx.emit(ctx.actor, "mcs.release", self.name, cohort.name,
                             "handoff abandoned")
                    desc.end()
                    return
            else:
                ctx.emit(ctx.actor, "lock.wait", self.name, "next", "cohort", cohort.name)
                nxt = yield from ctx.wait_local(desc.next_ptr, lambda p: p != 0)
            budget = yield from ctx.read(desc.budget_ptr, signed=True)
            yield from cohort.neighbor_write(ctx, nxt + OFF_BUDGET, budget - 1)
            ctx.emit(ctx.actor, "mcs.pass", self.name, cohort.name, budget - 1)
        else:
            ctx.emit(ctx.actor, "mcs.release", self.name, cohort.name, "tail cleared")
        desc.end()

    # -- introspection -------------------------------------------------------
    def is_locked(self) -> bool:
        """``qIsLocked`` over both cohorts (oracle read, no simulated cost)."""
        region = self.cluster.regions[self.home_node]
        return (region.peek(ptr_addr(self.tail_r_ptr)) != 0
                or region.peek(ptr_addr(self.tail_l_ptr)) != 0)
