"""One-sided verbs over the simulated fabric.

:class:`RdmaNetwork` ties NICs, memory regions and the fabric together
and exposes the verb set from the paper's system model: ``rRead``,
``rWrite``, ``rCAS`` (plus ``rFAA``, which InfiniBand also offers and
the lock-table application uses for counters).

Every verb is a simulation-process fragment (``yield from network.r_cas(...)``)
that returns the op's result to the caller after the full round trip.
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
in-flight attempt (:meth:`~repro.sim.core.Process.interrupt`) — cleanly,
because NIC resources cancel abandoned admissions — then the verb is
retransmitted with exponential backoff.  Losses happen on the *request*
path only, before the target executes the op, so retries are
exactly-once at the application layer (what PSN dedup guarantees on real
hardware) and a retried rCAS can never double-apply.  When the retry
budget is exhausted a typed :class:`~repro.common.errors.VerbTimeout`
surfaces to the caller.  Without an injector the verbs run the original
fault-free code path unchanged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.common.errors import MemoryError_, VerbTimeout
from repro.faults.injector import FaultInjector
from repro.memory.races import RaceAuditor
from repro.memory.region import MemoryRegion, from_signed, to_signed
from repro.memory.pointer import ptr_addr, ptr_node
from repro.obs import FAULT_RETRY, VERB_RTT, Observability
from repro.rdma.config import RdmaConfig
from repro.rdma.nic import Rnic
from repro.rdma.qp import qp_id
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
        self._jitter_rng = jitter_rng
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
        # metrics the verbs skip the _observed wrapper frame and run the
        # exact pre-obs code path
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

    # -- internals ---------------------------------------------------------
    def _route(self, src_node: int, ptr: int) -> tuple[int, int, MemoryRegion, bool]:
        dst = ptr_node(ptr)
        addr = ptr_addr(ptr)
        if not 0 <= dst < self._n_nodes:
            raise MemoryError_(f"pointer targets unknown node {dst}")
        return dst, addr, self.regions[dst], dst == src_node

    def _fabric_delay(self) -> float:
        d = self._one_way_latency_ns
        if self._jitter_ns > 0 and self._jitter_rng is not None:
            d += float(self._jitter_rng.uniform(0.0, self._jitter_ns))
        return d

    def _transit(self, src_nic: Rnic, loopback: bool):
        """Source-to-target transit after the send side."""
        if loopback:
            yield from src_nic.loopback_turnaround()
        else:
            yield self._fabric_delay()

    def _return_path(self, src_nic: Rnic, loopback: bool):
        """ACK/response back to the requester + completion DMA."""
        if not loopback:
            yield self._fabric_delay()
        yield from src_nic.pcie_crossing()

    # -- fault/retry harness ----------------------------------------------
    def _lost_transmission(self, qp: tuple, src_nic: Rnic, loopback: bool):
        """One transmission whose request packet is dropped: the send
        side is charged for real, then the op vanishes in flight.  The
        watchdog in :meth:`_deliver` interrupts this process; the hang
        event is never triggered."""
        yield from src_nic.send_side(qp)
        yield from self._transit(src_nic, loopback)
        yield self.env.event()  # the packet is gone; nothing wakes us

    def _deliver(self, verb: str, src_node: int, dst: int, qp: tuple,
                 src_nic: Rnic, loopback: bool, attempt,
                 actor: Optional[str] = None):
        """Run one verb, retransmitting through the fault layer.

        ``attempt`` is a zero-argument generator function performing the
        full fault-free round trip; it is invoked at most once (losses
        hang *instead of* executing, mirroring request-path drops).
        ``actor`` is the issuing thread when the call comes through the
        timing wrapper, and each retransmission wait is then a
        ``fault.retry`` interval; without the wrapper nothing keeps
        interval events, so nobody misses the name.
        """
        inj = self.injector
        if inj is None:
            return (yield from attempt())
        plan = inj.plan
        timeout_ns = plan.retry_timeout_ns
        for transmission in range(plan.retry_limit):
            fault = inj.decide_verb(verb, src_node, dst, self.env.now)
            if fault.delay_ns > 0.0:
                yield float(fault.delay_ns)  # latency spike
            if not fault.dropped:
                return (yield from attempt())
            # Dropped: the doomed transmission still occupies real NIC
            # resources; the requester times out and kills it mid-flight.
            self._emit(actor, "span.begin", FAULT_RETRY, verb, transmission)
            ghost = self.env.process(
                self._lost_transmission(qp, src_nic, loopback),
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
                  qp: tuple, src_nic: Rnic, loopback: bool, attempt):
        """Time one verb round trip as a ``verb.rtt`` interval and RTT
        histogram sample.  Only entered on a cluster that times intervals
        or collects metrics (``_obs_on``)."""
        actor = f"t{src_thread}@n{src_node}"
        self._emit(actor, "span.begin", VERB_RTT, verb, dst, loopback)
        h = self._h_rtt
        t0 = self.env.now if h is not None else 0.0
        try:
            result = yield from self._deliver(verb, src_node, dst, qp,
                                              src_nic, loopback, attempt,
                                              actor)
        except VerbTimeout:
            self._emit(actor, "span.end", VERB_RTT, "timeout")
            raise
        self._emit(actor, "span.end", VERB_RTT, "ok")
        if h is not None:
            h[(verb, loopback)].observe(self.env.now - t0)
        return result

    # -- verbs -----------------------------------------------------------
    def r_read(self, src_node: int, src_thread: int, ptr: int,
               *, signed: bool = False):
        """One-sided read of the 8-byte word at ``ptr``; returns its value."""
        self.verb_counts["rRead"] += 1
        dst, addr, region, loopback = self._route(src_node, ptr)
        if loopback:
            self.loopback_verbs += 1
        qp = qp_id(src_node, src_thread, dst)
        src_nic, dst_nic = self.nics[src_node], self.nics[dst]

        def attempt():
            yield from src_nic.send_side(qp)
            yield from self._transit(src_nic, loopback)
            value = yield from dst_nic.receive_side(
                qp, execute=lambda: region.remote_read(addr))
            yield from self._return_path(src_nic, loopback)
            return value

        if self._obs_on:
            value = yield from self._observed("rRead", src_node, src_thread,
                                              dst, qp, src_nic, loopback,
                                              attempt)
        elif self.injector is None:
            # No fault layer: _deliver would only delegate — skip its frame.
            value = yield from attempt()
        else:
            value = yield from self._deliver("rRead", src_node, dst, qp,
                                             src_nic, loopback, attempt)
        return to_signed(value) if signed else value

    def r_write(self, src_node: int, src_thread: int, ptr: int, value: int):
        """One-sided write of ``value`` to the word at ``ptr``."""
        self.verb_counts["rWrite"] += 1
        dst, addr, region, loopback = self._route(src_node, ptr)
        if loopback:
            self.loopback_verbs += 1
        qp = qp_id(src_node, src_thread, dst)
        src_nic, dst_nic = self.nics[src_node], self.nics[dst]

        def attempt():
            yield from src_nic.send_side(qp)
            yield from self._transit(src_nic, loopback)
            yield from dst_nic.receive_side(
                qp, execute=lambda: region.remote_write(addr, value))
            yield from self._return_path(src_nic, loopback)

        if self._obs_on:
            yield from self._observed("rWrite", src_node, src_thread, dst,
                                      qp, src_nic, loopback, attempt)
        elif self.injector is None:
            yield from attempt()
        else:
            yield from self._deliver("rWrite", src_node, dst, qp, src_nic,
                                     loopback, attempt)

    def _rmw(self, verb: str, src_node: int, src_thread: int, ptr: int,
             apply_fn, actor: str):
        """Common path for rCAS/rFAA: two-phase execute at the target with
        the Table-1 window registered on the auditor."""
        self.verb_counts[verb] += 1
        dst, addr, region, loopback = self._route(src_node, ptr)
        if loopback:
            self.loopback_verbs += 1
        qp = qp_id(src_node, src_thread, dst)
        src_nic, dst_nic = self.nics[src_node], self.nics[dst]
        env = self.env
        auditor = self.auditor
        state: dict = {}

        def execute(phase: str):
            if phase == "read":
                old = region.remote_rmw_read(addr)
                state["old"] = old
                state["new"] = apply_fn(old)
                if auditor is not None:
                    state["win"] = auditor.remote_rmw_begin(
                        dst, addr, verb, actor, env.now,
                        env.now + dst_nic.config.atomic_window_ns)
                return old
            # commit phase
            if state["new"] is not None:
                region.remote_rmw_commit(addr, state["new"])
            if auditor is not None:
                auditor.remote_rmw_end(dst, state["win"])
            return state["old"]

        def attempt():
            yield from src_nic.send_side(qp)
            yield from self._transit(src_nic, loopback)
            old = yield from dst_nic.receive_side(qp, atomic=True,
                                                  execute=execute)
            yield from self._return_path(src_nic, loopback)
            return old

        if self._obs_on:
            old = yield from self._observed(verb, src_node, src_thread, dst,
                                            qp, src_nic, loopback, attempt)
        elif self.injector is None:
            old = yield from attempt()
        else:
            old = yield from self._deliver(verb, src_node, dst, qp, src_nic,
                                           loopback, attempt)
        return old

    def r_cas(self, src_node: int, src_thread: int, ptr: int,
              expected: int, desired: int, *, signed: bool = False,
              actor: str = "?"):
        """One-sided compare-and-swap; returns the previous value (the
        swap happened iff the return equals ``expected``)."""
        exp_raw = from_signed(expected)

        def apply_fn(old: int):
            return from_signed(desired) if old == exp_raw else None

        old = yield from self._rmw("rCAS", src_node, src_thread, ptr,
                                   apply_fn, actor)
        return to_signed(old) if signed else old

    def r_faa(self, src_node: int, src_thread: int, ptr: int, delta: int,
              *, signed: bool = False, actor: str = "?"):
        """One-sided fetch-and-add; returns the previous value."""
        def apply_fn(old: int):
            return from_signed(to_signed(old) + delta)

        old = yield from self._rmw("rFAA", src_node, src_thread, ptr,
                                   apply_fn, actor)
        return to_signed(old) if signed else old

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
