"""One-sided verbs over the simulated fabric.

:class:`RdmaNetwork` ties NICs, memory regions and the fabric together
and exposes the verb set from the paper's system model: ``rRead``,
``rWrite``, ``rCAS`` (plus ``rFAA``, which InfiniBand also offers and
the lock-table application uses for counters).

Every verb is a simulation-process fragment (``yield from network.r_cas(...)``)
that returns the op's result to the caller after the full round trip.
The round trip through the two NICs is stated once, as one flat
generator (:meth:`RdmaNetwork._round_trip`); :meth:`RdmaNetwork._verb`
counts and routes a verb and *returns* that generator, so the caller's
``yield from`` drives a single frame; ``r_read``/``r_write``/``r_cas``/
``r_faa`` are the public entry over it.  Inside the trip each stage
crossing is one flat call and stays its own schedule slot (DESIGN.md
decision 18).
The RPC transport's one-way message and the fault layer's doomed
transmission are the same traversal cut short.
Issuing a verb against the caller's *own* node takes the **loopback**
path: same NIC, both pipelines, no fabric — the mechanism the paper's
competitors rely on for local accesses and the source of the Fig. 1
saturation.

A remote RMW's read and write-back are separated by the NIC's
``atomic_window_ns`` while the target RX pipeline is held; the shared
:class:`~repro.memory.races.RaceAuditor` is told about the window so
Table-1 violations by concurrent local code are detected, and a local
write landing inside the window is genuinely lost (overwritten by the
RMW's write-back).

Fault injection (:mod:`repro.faults`): when the network is built with a
:class:`~repro.faults.FaultInjector`, each verb passes through a
requester-side retransmission harness modeled on the RC transport.  A
lost transmission charges the send side and then hangs in flight; a
watchdog timer fires after the retry timeout and *interrupts* the
in-flight attempt (:meth:`~repro.sim.core.Process.interrupt`) — cleanly:
what the dead op booked on PCIe and TX stands (the NIC did that work),
and an RX slot it held or queued for is given back — then the verb is
retransmitted with exponential backoff.  Losses happen on the *request*
path only, before the target executes the op, so retries are
exactly-once at the application layer (what PSN dedup guarantees on real
hardware) and a retried rCAS can never double-apply.  When the retry
budget is exhausted a typed :class:`~repro.common.errors.VerbTimeout`
surfaces to the caller.  Without an injector the caller drives the bare
round trip.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.common.errors import MemoryError_, VerbTimeout
from repro.faults.injector import FaultInjector
from repro.memory.races import RaceAuditor
from repro.memory.region import MemoryRegion, from_signed, to_signed
from repro.memory.pointer import ADDR_BITS, _ADDR_MASK
from repro.obs import FAULT_RETRY, VERB_RTT, Observability
from repro.rdma.config import RdmaConfig
from repro.rdma.nic import Rnic
from repro.sim.core import Environment

_VERBS = ("rRead", "rWrite", "rCAS", "rFAA")


class RdmaNetwork:
    """The cluster's RDMA plane: one NIC per node + the fabric."""

    def __init__(self, env: Environment, config: RdmaConfig,
                 regions: list[MemoryRegion],
                 auditor: Optional[RaceAuditor] = None,
                 jitter_rng: Optional[np.random.Generator] = None,
                 injector: Optional[FaultInjector] = None,
                 obs: Optional[Observability] = None):
        self.env = env
        self.config = config
        self.regions = regions
        self.auditor = auditor
        self.nics = [Rnic(env, i, config.nic) for i in range(len(regions))]
        # without a jitter stream a fabric hop is the plain latency
        self._jitter_rng = jitter_rng if config.fabric.jitter_ns > 0 else None
        self.injector = injector
        # A network built without a cluster (unit tests) gets its own
        # ring-level log.  Verbs are reported here only on the cold
        # retry/timeout path and inside the timing wrapper (per-verb
        # issue events live in ThreadContext, where the actor string is
        # precomputed).
        if obs is None:
            obs = Observability(env)
        self._emit = obs.log.emit
        self._node_actors = [f"n{i}" for i in range(len(regions))]
        # pre-built RTT histograms (None when metrics are off)
        if obs.metrics.enabled:
            self._h_rtt = {
                (v, lb): obs.metrics.histogram(
                    "verb.rtt_ns", verb=v,
                    path="loopback" if lb else "fabric")
                for v in _VERBS for lb in (False, True)
            }
        else:
            self._h_rtt = None
        # computed once: unless the cluster times intervals or collects
        # metrics a verb is the bare round trip, with no wrapper frame
        self._obs_on = obs.enabled
        # Per-verb latency parameters cached off the (immutable) config:
        # every verb consults the fabric latency twice per round trip, and
        # the config-object attribute chain is hot enough to matter.
        self._one_way_latency_ns = float(config.fabric.one_way_latency_ns)
        self._jitter_ns = config.fabric.jitter_ns
        self._n_nodes = len(regions)
        # statistics
        self.verb_counts = {"rRead": 0, "rWrite": 0, "rCAS": 0, "rFAA": 0}
        self.loopback_verbs = 0

    # -- the NIC pipeline ----------------------------------------------------
    def _fabric_delay(self) -> float:
        """One fabric hop with its jitter draw (jittered networks only)."""
        return self._one_way_latency_ns + float(
            self._jitter_rng.uniform(0.0, self._jitter_ns))

    def _round_trip(self, op: Optional[str], qp: tuple, src_nic: Rnic,
                    dst_nic: Rnic, loopback: bool,
                    region: Optional[MemoryRegion] = None, addr: int = 0,
                    a: int = 0, b: int = 0, signed: bool = False,
                    actor: str = "?", reply: bool = True,
                    lost: bool = False):
        """One op's whole path through the two NICs, as one generator.

        ``op`` says what lands at the target — ``"rRead"``, ``"rWrite"``
        (``a`` = value), ``"rCAS"`` (``a`` = expected, ``b`` = desired,
        both raw), ``"rFAA"`` (``a`` = delta), or ``None`` for a bare
        message that touches no memory.  ``reply=False`` ends the
        traversal once the op has landed (a two-sided send has no
        response path); ``lost=True`` is a transmission whose request
        packet is dropped: the send side is charged for real, then the
        op hangs in flight until the retransmission watchdog interrupts
        it, and never reaches the target.

        PCIe and TX are computed FIFOs
        (:class:`~repro.sim.resources.Pipeline`): their service time is
        known on arrival, so the op books its place and sleeps once, to
        the far side of the stage *and* of whatever fixed delay follows
        it.  RX is an evented :class:`~repro.sim.resources.Resource`:
        its service time is judged at the head of the queue, atomics
        hold it across landing + window, and a killed op must give it
        back.  A PCIe/TX booking of a killed op stands — the NIC has
        fetched the WQE; a requester-side timeout does not un-process
        it.  The stages are not folded into one completion event:
        arrival order at a shared stage is decided when the arrival
        happens.
        """
        # -- send side: WQE fetch over PCIe, then the TX pipeline and the
        # transit behind it (internal TX->RX turnaround, or the fabric)
        src_nic.tx_ops += 1
        yield src_nic.pcie.transit(src_nic._pcie_crossing_ns)
        service = src_nic._tx_service_ns + src_nic.qpc.touch(qp)
        if loopback:
            src_nic.loopback_ops += 1
            flight_ns = src_nic._loopback_turnaround_ns
        else:
            flight_ns = (self._one_way_latency_ns if self._jitter_rng is None
                         else self._fabric_delay())
        yield src_nic.tx.transit(service) + flight_ns
        if lost:
            yield self.env.event()  # the packet is gone; nothing wakes us
            return None
        # -- receive side: the responder holds connection state too, and
        # touches its QPC on arrival, before queueing for the RX pipeline
        dst_nic.rx_ops += 1
        penalty = dst_nic.qpc.touch(qp)
        rx = dst_nic.rx
        result = None
        grant = rx.admit()
        try:
            if grant is not None:
                yield grant
            # congestion: the backlog behind the op at the head of the queue
            service = dst_nic._rx_service_ns
            over = len(rx._queue) - dst_nic._rx_congestion_threshold
            if over > 0:
                service *= min(1.0 + dst_nic._rx_congestion_factor * over,
                               dst_nic._rx_congestion_max_factor)
            yield service + penalty
            # the op lands: its linearization point
            if op == "rRead":
                result = region.remote_read(addr)
            elif op == "rWrite":
                region.remote_write(addr, a)
            elif op is not None:
                # A remote RMW is a read, then a write-back one atomic
                # window later, with the RX pipeline held throughout so
                # remote atomics serialize at the target.
                result = region.remote_rmw_read(addr)
                if op == "rFAA":
                    new = result + a  # the store keeps it mod 2**64
                else:
                    new = b if result == a else None
                window_ns = dst_nic._atomic_window_ns
                auditor = self.auditor
                window = None
                if auditor is not None:
                    now = self.env.now
                    window = auditor.remote_rmw_begin(
                        dst_nic.node_id, addr, op, actor, now,
                        now + window_ns)
                try:
                    yield window_ns
                    if new is not None:
                        region.remote_rmw_commit(addr, new)
                finally:
                    # also when killed inside the window: a dead RMW
                    # must not leave a Table-1 window open on the word
                    if window is not None:
                        auditor.remote_rmw_end(dst_nic.node_id, window)
        except BaseException:
            rx.cancel(grant)
            raise
        rx.release()
        # -- the DMA against host memory and, behind it, the ACK/response's
        # way back to the requester; then the completion DMA
        back_ns = 0.0 if loopback or not reply else (
            self._one_way_latency_ns if self._jitter_rng is None
            else self._fabric_delay())
        yield dst_nic.pcie.transit(dst_nic._pcie_crossing_ns) + back_ns
        if not reply:
            return result
        yield src_nic.pcie.transit(src_nic._pcie_crossing_ns)
        return to_signed(result) if signed else result

    # -- fault/retry harness ----------------------------------------------
    def _deliver(self, verb: str, src_node: int, dst: int, qp: tuple,
                 loopback: bool, trip, actor: Optional[str] = None):
        """Run one verb, retransmitting through the fault layer.

        ``trip`` is the not-yet-started fault-free round trip; it is
        driven at most once (losses hang *instead of* executing,
        mirroring request-path drops).  ``actor`` is the issuing thread
        when the call comes through the timing wrapper, and each
        retransmission wait is then a ``fault.retry`` interval; without
        the wrapper nothing keeps interval events, so nobody misses the
        name.
        """
        inj = self.injector
        if inj is None:
            return (yield from trip)
        plan = inj.plan
        timeout_ns = plan.retry_timeout_ns
        for transmission in range(plan.retry_limit):
            fault = inj.decide_verb(verb, src_node, dst, self.env.now)
            if fault.delay_ns > 0.0:
                yield float(fault.delay_ns)  # latency spike
            if not fault.dropped:
                return (yield from trip)
            # Dropped: the doomed transmission still occupies real NIC
            # resources; the requester times out and kills it mid-flight.
            self._emit(actor, "span.begin", FAULT_RETRY, verb, transmission)
            ghost = self.env.process(
                self._round_trip(None, qp, self.nics[src_node],
                                 self.nics[dst], loopback, lost=True),
                name=f"{verb}-lost-tx")
            yield float(timeout_ns)
            ghost.interrupt("verb-timeout")
            inj.note_retry(verb)
            self._emit(actor, "span.end", FAULT_RETRY, timeout_ns)
            timeout_ns *= plan.retry_backoff
        inj.note_verb_timeout(verb)
        self._emit(self._node_actors[src_node], "verb.timeout", verb, dst)
        raise VerbTimeout(
            f"{verb} to node {dst} lost {plan.retry_limit} transmissions "
            f"(retry budget exhausted)",
            verb=verb, target_node=dst, attempts=plan.retry_limit)

    def _observed(self, verb: str, src_node: int, src_thread: int, dst: int,
                  qp: tuple, loopback: bool, trip):
        """Time one verb round trip as a ``verb.rtt`` interval and RTT
        histogram sample.  Only entered on a cluster that times intervals
        or collects metrics (``_obs_on``)."""
        actor = f"t{src_thread}@n{src_node}"
        self._emit(actor, "span.begin", VERB_RTT, verb, dst, loopback)
        h = self._h_rtt
        t0 = self.env.now if h is not None else 0.0
        try:
            result = yield from self._deliver(verb, src_node, dst, qp,
                                              loopback, trip, actor)
        except VerbTimeout:
            self._emit(actor, "span.end", VERB_RTT, "timeout")
            raise
        self._emit(actor, "span.end", VERB_RTT, "ok")
        if h is not None:
            h[(verb, loopback)].observe(self.env.now - t0)
        return result

    # -- verbs -----------------------------------------------------------
    def _verb(self, verb: str, src_node: int, src_thread: int, ptr: int,
              a: int, b: int, signed: bool, actor: str):
        """Count and route one verb; return the generator that performs
        it — the bare round trip, or the cold wrapper this network was
        built to need around it.  ``a``/``b`` are raw (a CAS's are
        64-bit patterns); a thread context calls this directly."""
        self.verb_counts[verb] += 1
        dst = ptr >> ADDR_BITS
        if not 0 <= dst < self._n_nodes:
            raise MemoryError_(f"pointer targets unknown node {dst}")
        loopback = dst == src_node
        if loopback:
            self.loopback_verbs += 1
        qp = (src_node, src_thread, dst)  # qp_id(), inlined
        nics = self.nics
        trip = self._round_trip(verb, qp, nics[src_node], nics[dst], loopback,
                                self.regions[dst], ptr & _ADDR_MASK, a, b,
                                signed, actor)
        if self._obs_on:
            return self._observed(verb, src_node, src_thread, dst, qp,
                                  loopback, trip)
        if self.injector is not None:
            return self._deliver(verb, src_node, dst, qp, loopback, trip)
        return trip

    def r_read(self, src_node: int, src_thread: int, ptr: int,
               *, signed: bool = False):
        """One-sided read of the 8-byte word at ``ptr``; returns its value."""
        return self._verb("rRead", src_node, src_thread, ptr, 0, 0, signed,
                          "?")

    def r_write(self, src_node: int, src_thread: int, ptr: int, value: int):
        """One-sided write of ``value`` to the word at ``ptr``."""
        return self._verb("rWrite", src_node, src_thread, ptr, value, 0,
                          False, "?")

    def r_cas(self, src_node: int, src_thread: int, ptr: int,
              expected: int, desired: int, *, signed: bool = False,
              actor: str = "?"):
        """One-sided compare-and-swap; returns the previous value (the
        swap happened iff the return equals ``expected``)."""
        return self._verb("rCAS", src_node, src_thread, ptr,
                          from_signed(expected), from_signed(desired),
                          signed, actor)

    def r_faa(self, src_node: int, src_thread: int, ptr: int, delta: int,
              *, signed: bool = False, actor: str = "?"):
        """One-sided fetch-and-add; returns the previous value."""
        return self._verb("rFAA", src_node, src_thread, ptr, delta, 0,
                          signed, actor)

    # -- reporting -----------------------------------------------------
    def stats(self) -> dict:
        out = {
            "verbs": dict(self.verb_counts),
            "loopback_verbs": self.loopback_verbs,
            "nics": [nic.stats() for nic in self.nics],
        }
        if self.injector is not None:
            out["faults"] = self.injector.stats()
        return out
