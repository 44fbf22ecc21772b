"""Lock-phase latency decomposition over a span stream.

Splits every lock operation into an **exact contiguous partition** of
its end-to-end latency:

```
 lock() called      CS entered        unlock() called   unlock() returns
   |---- acquire span ----|-- critical section --|--- release span ---|
   |  queue_wait | cross_cohort                  |
```

* ``cross_cohort_ns`` — time inside ``peterson.compete`` child spans of
  the acquisition (the leader competing against the other cohort);
* ``queue_wait_ns`` — the rest of the acquire span: MCS queue linking,
  budget waits, and the verbs that implement them;
* ``critical_section_ns`` — acquire end to release start (application
  time under the lock);
* ``release_ns`` — the release span (tail CAS or successor handover).

Because the four pieces tile ``[acquire.start, release.end]`` with no
gaps or overlap, their sum equals the end-to-end latency *exactly* (up
to float addition), which ``ext_phases`` asserts against the workload
runner's independent latency samples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.spans import (
    LOCK_ACQUIRE,
    LOCK_RELEASE,
    MCS_QUEUE_WAIT,
    PETERSON_COMPETE,
    Span,
)


@dataclass(frozen=True)
class LockOperation:
    """One acquire → critical section → release, decomposed."""

    actor: str
    lock: str
    kind: str
    start_ns: float
    queue_wait_ns: float
    cross_cohort_ns: float
    critical_section_ns: float
    release_ns: float
    #: sum of ``mcs.queue_wait`` children — the part of ``queue_wait_ns``
    #: spent queued behind a predecessor (an ALock follower's link write
    #: and its wait for the budget; vs. the reset and the swap).
    mcs_blocked_ns: float
    #: ALock cohort annotation ("local"/"remote"; "" for other locks).
    cohort: str = ""

    @property
    def end_to_end_ns(self) -> float:
        return (self.queue_wait_ns + self.cross_cohort_ns
                + self.critical_section_ns + self.release_ns)

    @property
    def acquire_ns(self) -> float:
        return self.queue_wait_ns + self.cross_cohort_ns


def extract_operations(spans: list[Span]) -> list[LockOperation]:
    """Pair ``lock.acquire`` spans with the following ``lock.release`` of
    the same actor+lock and decompose.  Unpaired acquisitions (window
    expired mid-CS, failed acquires) are skipped."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent_id:
            children.setdefault(s.parent_id, []).append(s)

    # Per (actor, lock) streams in start order; generator execution is
    # sequential per actor, so acquire/release strictly alternate.
    streams: dict[tuple, list[Span]] = {}
    for s in spans:
        if s.name in (LOCK_ACQUIRE, LOCK_RELEASE) and s.finished:
            key = (s.actor, s.attrs.get("lock", "?"))
            streams.setdefault(key, []).append(s)

    ops: list[LockOperation] = []
    for (actor, lock_name), stream in sorted(streams.items()):
        stream.sort(key=lambda s: (s.start_ns, s.span_id))
        pending = None
        for s in stream:
            if s.name == LOCK_ACQUIRE:
                pending = s if s.attrs.get("outcome") == "ok" else None
            elif pending is not None:
                acq, rel = pending, s
                pending = None
                cross = sum(c.duration_ns for c in children.get(acq.span_id, ())
                            if c.name == PETERSON_COMPETE and c.finished)
                blocked = sum(c.duration_ns for c in children.get(acq.span_id, ())
                              if c.name == MCS_QUEUE_WAIT and c.finished)
                ops.append(LockOperation(
                    actor=actor,
                    lock=lock_name,
                    kind=acq.attrs.get("kind", "?"),
                    start_ns=acq.start_ns,
                    queue_wait_ns=acq.duration_ns - cross,
                    cross_cohort_ns=cross,
                    critical_section_ns=rel.start_ns - acq.end_ns,
                    release_ns=rel.duration_ns,
                    mcs_blocked_ns=blocked,
                    cohort=acq.attrs.get("cohort", ""),
                ))
    ops.sort(key=lambda op: (op.start_ns, op.actor, op.lock))
    return ops


_PHASES = ("queue_wait_ns", "cross_cohort_ns", "critical_section_ns",
           "release_ns")


def phase_summary(ops: list[LockOperation]) -> dict:
    """Aggregate a list of operations into mean-per-phase plus each
    phase's share of mean end-to-end latency."""
    n = len(ops)
    if n == 0:
        return {"count": 0}
    out: dict = {"count": n}
    e2e = sum(op.end_to_end_ns for op in ops) / n
    for phase in _PHASES:
        mean = sum(getattr(op, phase) for op in ops) / n
        out[f"mean_{phase}"] = mean
        out[f"share_{phase[:-3]}"] = mean / e2e if e2e else 0.0
    out["mean_end_to_end_ns"] = e2e
    out["mean_mcs_blocked_ns"] = sum(op.mcs_blocked_ns for op in ops) / n
    return out


def by_kind(ops: list[LockOperation]) -> dict[str, list[LockOperation]]:
    """Group operations by lock kind, insertion-ordered by first use."""
    groups: dict[str, list[LockOperation]] = {}
    for op in ops:
        groups.setdefault(op.kind, []).append(op)
    return groups
