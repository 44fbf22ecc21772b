"""Distributed lock table implementation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.common.errors import ConfigError
from repro.locks.base import DistributedLock, make_lock
from repro.memory.pointer import ptr_addr

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster, ThreadContext


def count_deadline_ns(n_ops: int, n_clients: int, cs_ns: float,
                      think_ns: float, stagger_ns: float = 0.0) -> float:
    """Simulated-time bound of a closed-loop run of ``n_ops`` operations
    by ``n_clients`` clients (client ``k`` starting ``k * stagger_ns``
    late): a generous 60 µs per operation plus ten times its dwell, and
    1 ms of slack.  Clients still alive past it are a stall — livelock
    or starvation — not a slow run."""
    per_op = 60_000.0 + 10.0 * (cs_ns + think_ns)
    return n_ops * per_op + n_clients * stagger_ns + 1_000_000.0


@dataclass
class LockEntry:
    """One table slot: the lock plus the 8-byte counter it guards (both
    on the same home node, as in the paper's partitioned table)."""

    index: int
    home_node: int
    lock: DistributedLock
    counter_ptr: int


class DistributedLockTable:
    """``n_locks`` locks striped across the cluster's nodes.

    The table size *is* the logical contention knob of §6: 20 locks =
    high contention, 100 = medium, 1000 = low.

    Args:
        cluster: target cluster.
        n_locks: table size (>= n_nodes so every node holds at least one
            lock, which the locality-driven workload requires).
        lock_kind: registered lock type name ("alock", "spinlock", "mcs").
        lock_options: forwarded to the lock factory (e.g. budgets).
        lease_ns: lease-based stall detection (0 = off).  When enabled,
            :meth:`acquire` races the lock acquisition against a lease
            timer; a waiter that watches the *same* holder sit on the
            lock for a full lease period records a lease expiration and
            flags the entry degraded.  Detection only — the stalled
            holder keeps the lock (forcibly breaking an MCS queue would
            violate the protocol) — but the run keeps making progress on
            every other lock and reports the degradation instead of
            looking healthy while wedged.
    """

    def __init__(self, cluster: "Cluster", n_locks: int, lock_kind: str,
                 lock_options: Optional[dict] = None, lease_ns: float = 0.0):
        if n_locks < cluster.n_nodes:
            raise ConfigError(
                f"need n_locks >= n_nodes ({cluster.n_nodes}) so each node "
                f"holds a partition; got {n_locks}")
        if lease_ns < 0:
            raise ConfigError(f"lease_ns must be >= 0, got {lease_ns}")
        self.cluster = cluster
        self.lock_kind = lock_kind
        self.lease_ns = lease_ns
        # recovery / degraded-mode metrics
        self.lease_expirations = 0
        self.degraded_entries: set[int] = set()
        #: post-mortem JSON captured at the most recent lease expiry
        #: (None until one fires); see repro.obs.postmortem.
        self.last_postmortem: Optional[str] = None
        options = dict(lock_options or {})
        self.entries: list[LockEntry] = []
        self._by_node: list[list[int]] = [[] for _ in range(cluster.n_nodes)]
        self._remote_by_node: list[Optional[list[int]]] = [None] * cluster.n_nodes
        for i in range(n_locks):
            node = i % cluster.n_nodes
            lock = make_lock(lock_kind, cluster, node,
                             name=f"{lock_kind}[{i}]@n{node}", **options)
            counter_ptr = cluster.alloc_on(node, 64)
            cluster.regions[node].label_word(ptr_addr(counter_ptr),
                                             f"counter[{i}]")
            self.entries.append(LockEntry(i, node, lock, counter_ptr))
            self._by_node[node].append(i)

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, index: int) -> LockEntry:
        return self.entries[index]

    def local_indices(self, node: int) -> list[int]:
        """Lock indices homed on ``node`` (local accesses for its threads)."""
        return self._by_node[node]

    def remote_indices(self, node: int) -> list[int]:
        """Lock indices homed elsewhere (remote accesses for ``node``'s
        threads).  Built on first request and shared by every thread of
        the node, like :meth:`local_indices`: read it, do not mutate it."""
        remote = self._remote_by_node[node]
        if remote is None:
            remote = self._remote_by_node[node] = [
                e.index for e in self.entries if e.home_node != node]
        return remote

    # -- operations ----------------------------------------------------------
    def acquire(self, ctx: "ThreadContext", index: int):
        """Acquire entry ``index``'s lock; with a lease configured, also
        watch for a stalled holder while waiting.

        Returns the generator to drive (``yield from``) rather than being
        one, so the leaseless path adds no frame to each resume of the
        lock protocol."""
        if self.lease_ns <= 0:
            return self.entries[index].lock.lock(ctx)
        return self._acquire_leased(ctx, index)

    def _acquire_leased(self, ctx: "ThreadContext", index: int):
        """Race the acquisition against lease timers (recovery hook).

        The acquisition runs as a child process; every ``lease_ns`` the
        waiter wakes, consults the oracle holder state, and — if one
        holder spanned the whole period — reports the stall.  The lock
        protocol itself is untouched: no extra verbs, no reordering, and
        the child resumes exactly where the plain path would.
        """
        env = self.cluster.env
        entry = self.entries[index]
        lock = entry.lock
        waiter = env.process(lock.lock(ctx),
                             name=f"{ctx.actor}-acquire-{index}")
        while not waiter.triggered:
            timer = env.timeout(self.lease_ns)
            yield env.any_of([waiter, timer])
            if waiter.triggered:
                break
            holder = lock.holder_gid
            if holder != 0 and env.now - lock.holder_since >= self.lease_ns:
                # One holder sat on the lock for a full lease: stalled.
                self.lease_expirations += 1
                self.degraded_entries.add(index)
                ctx.emit(ctx.actor, "lease.expired", lock.name, holder)
                # Freeze the evidence: a lease expiry is a failure even
                # though the run continues degraded.
                from repro.obs.postmortem import dump_json, snapshot

                self.last_postmortem = dump_json(snapshot(
                    self.cluster, reason="lease-expiry",
                    detail=f"{lock.name}: holder gid {holder} exceeded "
                           f"{self.lease_ns:.0f} ns lease "
                           f"(waiter {ctx.actor})",
                    table=self))
        if not waiter.ok:
            raise waiter.value

    def release(self, ctx: "ThreadContext", index: int):
        """Release entry ``index``'s lock: the generator to drive, as
        :meth:`acquire` returns it."""
        return self.entries[index].lock.unlock(ctx)

    def guarded_increment(self, ctx: "ThreadContext", index: int):
        """Critical-section body: a deliberately non-atomic read-modify-
        write of the guarded counter, using the thread's natural API
        family.  Safe iff the lock provides mutual exclusion — lost
        updates surface in :meth:`check_counters`."""
        entry = self.entries[index]
        if ctx.is_local(entry.counter_ptr):
            value = yield from ctx.read(entry.counter_ptr)
            yield from ctx.write(entry.counter_ptr, value + 1)
        else:
            value = yield from ctx.r_read(entry.counter_ptr)
            yield from ctx.r_write(entry.counter_ptr, value + 1)

    # -- verification ---------------------------------------------------
    def counter_value(self, index: int) -> int:
        """Oracle read of one guarded counter (no simulated cost)."""
        entry = self.entries[index]
        return self.cluster.regions[entry.home_node].peek(ptr_addr(entry.counter_ptr))

    def total_count(self) -> int:
        return sum(self.counter_value(i) for i in range(len(self.entries)))

    def check_counters(self, expected_total: int) -> None:
        """Assert no updates were lost: counter sum == completed CS count."""
        actual = self.total_count()
        if actual != expected_total:
            raise AssertionError(
                f"lost updates detected: guarded counters sum to {actual}, "
                f"expected {expected_total} — mutual exclusion was violated")

    def total_acquisitions(self) -> int:
        return sum(e.lock.acquisitions for e in self.entries)

    def recovery_stats(self) -> dict:
        """Degraded-mode metrics from the lease monitor (all zero when
        leases are disabled)."""
        return {
            "lease_ns": self.lease_ns,
            "lease_expirations": self.lease_expirations,
            "degraded_locks": len(self.degraded_entries),
        }
