"""ALock's modified Peterson's algorithm (paper §5.2, Algorithm 4).

The two "processes" of the classic algorithm are the *cohort leaders*.
The classic ``flag`` array is replaced by the two MCS tails embedded in
the ALock record — a non-NULL tail means that cohort is interested in or
holds the lock, so locking/unlocking the cohort's MCS queue sets/unsets
the Peterson flag for free.  Only the ``victim`` word is written here.

The same procedure serves both the first acquisition (Algorithm 2, when
``qLock`` returned "not passed") and ``pReacquire`` (budget exhausted):
announce yourself as victim, then wait until the *other* cohort is
unlocked or has been made the victim.

Asymmetry, per the paper's cost analysis (§6.1): the **local** leader
uses shared-memory ops and parks event-style on the two words, while the
**remote** leader must *remote-spin* with ``rRead`` pairs — the reason
the remote budget should be larger than the local one (Fig. 4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.locks.layout import COHORT_LOCAL, COHORT_REMOTE

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import ThreadContext
    from repro.locks.alock.alock import ALock


def acquire_local(ctx: "ThreadContext", lock: "ALock", carry: float = 0.0):
    """AcquireGlobal for the local-cohort leader.

    Sets ``victim = LOCAL`` (local store + fence), then waits until the
    remote tail is NULL or the victim is no longer LOCAL.  The wait is
    event-driven on the two words — zero traffic while parked.  The
    caller's private steps (``carry``) ride with the victim store, the
    fence with the wait's first read.  The wait is reported by the
    caller (``lock.wait``, or a leader's ``mcs.swap``).
    """
    yield from ctx.write(lock.victim_ptr, COHORT_LOCAL, carry=carry)
    clauses = (
        (lock.tail_r_ptr, lambda tail_r: tail_r == 0, "remote-unlocked"),
        (lock.victim_ptr, lambda victim: victim != COHORT_LOCAL, "not-victim"),
    )
    if lock.bug == "no_victim_check":
        # Seeded defect: the not-victim clause is what lets the local
        # leader proceed while the remote cohort is still queued; a
        # leader without it waits for a fully-drained remote tail —
        # forever, once the remote side is itself waiting on the victim
        # word this leader still watches and will never rewrite.
        clauses = clauses[:1]
    why = yield from ctx.wait_local_cond(
        [lock.tail_r_ptr, lock.victim_ptr], clauses, carry=ctx.fence())
    ctx.emit(ctx.actor, "peterson.acquired", lock.name, "local", why)


def acquire_remote(ctx: "ThreadContext", lock: "ALock", carry: float = 0.0):
    """AcquireGlobal for the remote-cohort leader.

    Sets ``victim = REMOTE`` with an ``rWrite``, then remote-spins:
    each wait iteration is an ``rRead`` of the local tail and, if that is
    still locked, an ``rRead`` of the victim.  This is real NIC traffic —
    the asymmetric reacquire cost the budget policy is tuned around.
    The caller's private steps (``carry``) are slept before the rWrite,
    and the wait is reported by the caller, as in :func:`acquire_local`.
    """
    yield from ctx.r_write(lock.victim_ptr, COHORT_REMOTE, carry=carry)
    spins = 0
    while True:
        tail_l = yield from ctx.r_read(lock.tail_l_ptr)
        if tail_l == 0:
            ctx.emit(ctx.actor, "peterson.acquired", lock.name, "remote",
                     "local-unlocked", spins)
            return
        victim = yield from ctx.r_read(lock.victim_ptr)
        if victim != COHORT_REMOTE:
            ctx.emit(ctx.actor, "peterson.acquired", lock.name, "remote",
                     "not-victim", spins)
            return
        spins += 1
