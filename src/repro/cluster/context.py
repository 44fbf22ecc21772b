"""Per-thread execution context: the operation families of the paper's
system model (§4).

Every method that costs simulated time is driven with ``yield from``
inside a simulation process — except :meth:`ThreadContext.fence`, which
has nothing to apply and *returns* its delay (``yield ctx.fence()``).
A local operation is one leaf generator frame: it sleeps its cost from
the CPU cost model, then applies itself through one call on the node's
memory region.  Remote operations are one-sided verbs through the
NIC/fabric: each calls the network's router, ``RdmaNetwork._verb``, and
returns its round-trip generator rather than wrapping it.  The context
enforces Definition 4.1: the local family refuses pointers whose home
node differs from the thread's node.
"""

from __future__ import annotations

from typing import Callable, Sequence, TYPE_CHECKING

from repro.common.errors import MemoryError_, VerbTimeout
from repro.common.ids import make_global_thread_id
from repro.memory.pointer import ADDR_BITS, _ADDR_MASK, ptr_node
from repro.memory.region import _MASK64, to_signed

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster


class ThreadContext:
    """Thread ``t_i^j``: node ``i``, local thread index ``j``.

    Not constructed directly — use :meth:`Cluster.thread_ctx`.
    """

    # The trailing slots are per-lock descriptor caches, None until first
    # use (see repro.locks.alock.descriptors / repro.locks.baselines.mcs).
    __slots__ = ("cluster", "env", "node_id", "thread_id", "gid", "actor",
                 "_region", "_net", "_read_ns", "_write_ns", "_cas_ns",
                 "_fence_ns", "_recheck_ns", "_faults_on", "emit",
                 "local_op_count", "remote_op_count", "verb_timeouts",
                 "_alock_descriptors", "_alock_descriptor_pools",
                 "_mcs_descriptor")

    def __init__(self, cluster: "Cluster", node_id: int, thread_id: int):
        self.cluster = cluster
        self.env = cluster.env
        self.node_id = node_id
        self.thread_id = thread_id
        self.gid = make_global_thread_id(node_id, thread_id)
        self.actor = f"t{thread_id}@n{node_id}"
        self._region = cluster.regions[node_id]
        self._net = cluster.network
        # The CPU cost model as floats, once: a local op lets its cost
        # pass by yielding it, and a process sleeps on a float
        # (repro.sim.core).  The config is immutable for the run.
        cpu = cluster.config.cpu
        self._read_ns = float(cpu.local_read_ns)
        self._write_ns = float(cpu.local_write_ns)
        self._cas_ns = float(cpu.local_cas_ns)
        self._fence_ns = float(cpu.fence_ns)
        self._recheck_ns = float(cpu.spin_recheck_ns)
        # decided once: only a fault injector can exhaust a verb's retry
        # budget, so only then are verbs wrapped to attribute the timeout
        self._faults_on = cluster.network.injector is not None
        #: report a protocol step: ``ctx.emit(ctx.actor, kind, *fields)``
        #: (the cluster log's ``emit`` — see :mod:`repro.obs.log`).
        self.emit = cluster.log.emit
        # statistics
        self.local_op_count = 0
        self.remote_op_count = 0
        self.verb_timeouts = 0
        self._alock_descriptors = None
        self._alock_descriptor_pools = None
        self._mcs_descriptor = None

    # -- locality ----------------------------------------------------------
    def is_local(self, ptr: int) -> bool:
        """Definition 4.1/4.2: does ``ptr`` live on this thread's node?
        (The ALock's ``Lock()`` picks the cohort by the same test, made
        on its record's ``home_node``.)"""
        return ptr_node(ptr) == self.node_id

    def _local_addr(self, ptr: int) -> int:
        # The word ops make this test inline (it runs on every one of
        # them) and call here only to raise.
        if (ptr >> ADDR_BITS) != self.node_id:
            raise MemoryError_(
                f"{self.actor} attempted a LOCAL operation on node "
                f"{ptr_node(ptr)} memory — local ops require loopback or "
                f"verbs (this is the bug class ALock exists to prevent)")
        return ptr & _ADDR_MASK

    # -- local (shared-memory) operations ------------------------------
    def read(self, ptr: int, *, signed: bool = False):
        """Local atomic 8-byte load."""
        if ptr >> ADDR_BITS != self.node_id:
            self._local_addr(ptr)
        self.local_op_count += 1
        yield self._read_ns
        value = self._region.read(ptr & _ADDR_MASK, self.actor)
        return to_signed(value) if signed else value

    def write(self, ptr: int, value: int):
        """Local atomic 8-byte store."""
        if ptr >> ADDR_BITS != self.node_id:
            self._local_addr(ptr)
        self.local_op_count += 1
        yield self._write_ns
        self._region.write(ptr & _ADDR_MASK, value, self.actor)

    def cas(self, ptr: int, expected: int, desired: int, *, signed: bool = False):
        """Local compare-and-swap; returns the previous value."""
        if ptr >> ADDR_BITS != self.node_id:
            self._local_addr(ptr)
        self.local_op_count += 1
        yield self._cas_ns
        old = self._region.cas(ptr & _ADDR_MASK, expected, desired, self.actor)
        return to_signed(old) if signed else old

    def faa(self, ptr: int, delta: int, *, signed: bool = False):
        """Local fetch-and-add; returns the previous value."""
        if ptr >> ADDR_BITS != self.node_id:
            self._local_addr(ptr)
        self.local_op_count += 1
        yield self._cas_ns
        old = self._region.faa(ptr & _ADDR_MASK, delta, self.actor)
        return to_signed(old) if signed else old

    def fence(self) -> float:
        """atomic_thread_fence — required by §5.2 after locking and before
        unlocking (RDMA memory semantics are not sequentially consistent).
        It applies nothing, so it *returns* its delay for the caller to
        sleep: ``yield ctx.fence()`` (``yield from`` raises ``TypeError``)."""
        return self._fence_ns

    def wait_local(self, ptr: int, predicate: Callable[[int], bool],
                   *, signed: bool = False):
        """Spin on a local word until ``predicate(value)`` holds.

        Event-driven: parks on a memory watcher, so the spin generates no
        simulated traffic (the MCS local-spin property).  The watcher is
        registered *before* each check read — a write landing between the
        check and the park would otherwise be lost forever — and
        withdrawn when the check succeeds: nobody will park on it, and
        left in place it would fire on the word's next write, a wake-up
        for no one.  Returns the satisfying value.
        """
        addr = self._local_addr(ptr)
        region = self._region
        watched = (addr,)
        while True:
            ev = region.watch(addr)  # register first (synchronous)
            self.local_op_count += 1
            yield self._read_ns
            raw = region.read(addr, self.actor)
            value = to_signed(raw) if signed else raw
            if predicate(value):
                region.unwatch(ev, watched)
                return value
            yield ev
            yield self._recheck_ns

    def wait_local_cond(self, ptrs: Sequence[int],
                        clauses: Sequence[tuple[int, Callable[[int], bool], str]]):
        """Park until a compound condition over several *local* words holds.

        ``clauses`` are ordered ``(ptr, predicate, why)``: each round
        makes one charged read per clause, in order, and stops at the
        first whose ``predicate(value)`` holds — later words are not
        read — returning that clause's ``why``.  A round is made on
        entry and after every write to any of ``ptrs``.  The watcher is
        registered before the round's first read, which makes the wait
        lost-wakeup free; as in :meth:`wait_local`, a watcher whose
        round succeeded is withdrawn.  Used by the local cohort's
        Peterson wait, which involves both the victim word and the other
        cohort's tail.
        """
        addrs = [self._local_addr(p) for p in ptrs]
        region = self._region
        while True:
            ev = region.watch_any(addrs)  # register first
            for ptr, predicate, why in clauses:
                if ptr >> ADDR_BITS != self.node_id:
                    self._local_addr(ptr)
                self.local_op_count += 1
                yield self._read_ns
                if predicate(region.read(ptr & _ADDR_MASK, self.actor)):
                    region.unwatch(ev, addrs)
                    return why
            yield ev
            yield self._recheck_ns

    # -- remote (RDMA) operations ------------------------------------------
    # Plain functions, not generators: each counts, reports and *returns*
    # the network's round-trip generator, so a lock's
    # ``yield from ctx.r_cas(...)`` drives that one frame directly.
    def _attributed(self, trip):
        """Drive one verb, attributing a retry-budget exhaustion to this
        thread: the typed :class:`VerbTimeout` gains the actor, and the
        per-thread counter feeds degraded-mode metrics.  Wrapped around
        verbs only on a cluster with a fault injector — nothing else
        raises :class:`VerbTimeout`."""
        try:
            return (yield from trip)
        except VerbTimeout as exc:
            self.verb_timeouts += 1
            exc.actor = self.actor
            self.emit(self.actor, "verb.timeout", exc.verb, exc.target_node)
            raise

    def r_read(self, ptr: int, *, signed: bool = False):
        """One-sided RDMA read (loopback if ``ptr`` is local — only the
        baseline locks do that deliberately).

        No ``verb.issue`` event here or in :meth:`r_write`: reads and
        writes are the poll-loop verbs — reporting each one both blows
        the <3% ring budget and floods the ring with spin noise that
        evicts the protocol events a post-mortem needs.  The atomics
        below are the protocol chokepoints and are reported; timeouts
        are reported for every verb kind in :meth:`_attributed`.
        """
        self.remote_op_count += 1
        trip = self._net._verb("rRead", self.node_id, self.thread_id, ptr,
                               0, 0, signed, "?")
        return self._attributed(trip) if self._faults_on else trip

    def r_write(self, ptr: int, value: int):
        """One-sided RDMA write (unreported, see :meth:`r_read`)."""
        self.remote_op_count += 1
        trip = self._net._verb("rWrite", self.node_id, self.thread_id, ptr,
                               value, 0, False, "?")
        return self._attributed(trip) if self._faults_on else trip

    def r_cas(self, ptr: int, expected: int, desired: int, *, signed: bool = False):
        """One-sided RDMA compare-and-swap; returns the previous value."""
        self.emit(self.actor, "verb.issue", "rCAS", ptr >> ADDR_BITS)
        self.remote_op_count += 1
        trip = self._net._verb("rCAS", self.node_id, self.thread_id, ptr,
                               expected & _MASK64, desired & _MASK64, signed,
                               self.actor)
        return self._attributed(trip) if self._faults_on else trip

    def r_faa(self, ptr: int, delta: int, *, signed: bool = False):
        """One-sided RDMA fetch-and-add; returns the previous value."""
        self.emit(self.actor, "verb.issue", "rFAA", ptr >> ADDR_BITS)
        self.remote_op_count += 1
        trip = self._net._verb("rFAA", self.node_id, self.thread_id, ptr,
                               delta, 0, signed, self.actor)
        return self._attributed(trip) if self._faults_on else trip

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ThreadContext {self.actor}>"
