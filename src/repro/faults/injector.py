"""Runtime side of fault injection: seeded draws + bookkeeping.

One :class:`FaultInjector` serves a whole cluster.  Verb-level decisions
draw from a single ``("verb",)`` stream — the simulation's total event
order is deterministic, so the draw sequence (and therefore every
injected fault) replays exactly for a fixed seed.  Holder stalls draw
from per-thread streams so a thread's stall schedule does not depend on
how its ops interleave with other threads'.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import RngStreams
from repro.faults.plan import FaultPlan
from repro.obs.log import discard


@dataclass(frozen=True)
class VerbFault:
    """The injector's verdict for one transmission attempt."""

    dropped: bool = False
    delay_ns: float = 0.0
    #: why it was dropped: "" (not dropped), "loss", or "crash".
    cause: str = ""


#: Verdict singletons for the common no-fault case (avoids allocation on
#: the hot path when only a subset of fault sources is enabled).
_CLEAN = VerbFault()


def _node_actor(node: int) -> str:
    """The actor a verb-path fault is attributed to: the source NIC."""
    return f"n{node}"


class FaultInjector:
    """Draws fault decisions for a cluster and counts what it injected.

    Args:
        plan: the fault schedule.
        rngs: a seeded stream family, conventionally
            ``cluster.rng.fork("faults")`` so fault draws never perturb
            workload or jitter streams.
        emit: the cluster log's ``emit``; injected faults are ring
            events, so post-mortems show what the fault layer did in the
            window before a failure.
    """

    def __init__(self, plan: FaultPlan, rngs: RngStreams, emit=discard):
        self.plan = plan
        self._rngs = rngs
        self._verb_rng = rngs.get("verb")
        self._emit = emit
        # -- counters ----------------------------------------------------
        self.injected_losses = 0
        self.injected_spikes = 0
        self.crash_drops = 0
        self.retries = 0
        self.verb_timeouts = 0
        self.holder_stalls = 0
        self.retries_by_verb: dict[str, int] = {}

    # -- verb path ---------------------------------------------------------
    def decide_verb(self, verb: str, src_node: int, dst_node: int,
                    now: float) -> VerbFault:
        """Fault verdict for one transmission attempt of ``verb``."""
        plan = self.plan
        if plan.crash_windows and plan.crashed(dst_node, now):
            self.crash_drops += 1
            self._emit(_node_actor(src_node), "fault.drop", verb, dst_node,
                       "crash")
            return VerbFault(dropped=True, cause="crash")
        delay = 0.0
        if plan.spike_rate > 0 and self._verb_rng.random() < plan.spike_rate:
            self.injected_spikes += 1
            delay = plan.spike_ns
            self._emit(_node_actor(src_node), "fault.delay", verb, dst_node,
                       delay)
        if plan.verb_loss_rate > 0 and self._verb_rng.random() < plan.verb_loss_rate:
            self.injected_losses += 1
            self._emit(_node_actor(src_node), "fault.drop", verb, dst_node,
                       "loss")
            return VerbFault(dropped=True, delay_ns=delay, cause="loss")
        if delay == 0.0:
            return _CLEAN
        return VerbFault(delay_ns=delay)

    def note_retry(self, verb: str) -> None:
        self.retries += 1
        self.retries_by_verb[verb] = self.retries_by_verb.get(verb, 0) + 1

    def note_verb_timeout(self, verb: str) -> None:
        self.verb_timeouts += 1

    # -- application path --------------------------------------------------
    def holder_stall(self, node: int, thread: int) -> float:
        """Stall duration (ns) for the critical section the given thread
        just entered; 0 for no stall.  Per-thread stream."""
        plan = self.plan
        if plan.holder_stall_rate <= 0:
            return 0.0
        rng = self._rngs.get("stall", node, thread)
        if rng.random() < plan.holder_stall_rate:
            self.holder_stalls += 1
            actor = f"t{thread}@n{node}"
            self._emit(actor, "fault.stall", plan.holder_stall_ns)
            return plan.holder_stall_ns
        return 0.0

    # -- reporting ---------------------------------------------------------
    def stats(self) -> dict:
        """Flat counter dict merged into ``RunResult.fault_stats``."""
        return {
            "injected_losses": self.injected_losses,
            "injected_spikes": self.injected_spikes,
            "crash_drops": self.crash_drops,
            "retries": self.retries,
            "retries_by_verb": dict(self.retries_by_verb),
            "verb_timeouts": self.verb_timeouts,
            "holder_stalls": self.holder_stalls,
        }
