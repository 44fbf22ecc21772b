"""Regression tests: failed acquisitions must return their descriptors.

Under fault injection a remote acquisition can die mid-protocol with
:class:`VerbTimeout`.  Before the fix, ``ALock.lock`` never released the
thread's descriptor on that path: it stayed marked in-use, turning the
*next* attempt into a spurious :class:`ProtocolError` (Algorithm 1 gives
a thread one descriptor per cohort, so nothing else could take its
place).

:class:`TestEveryDescriptorHolder` runs the two failure exits of a
verb — a retry budget exhausted, and an interrupt landing while the
verb waits for the target's RX pipeline — against every lock kind that
holds a per-thread descriptor.
"""

import pytest

from repro.cluster import Cluster
from repro.common.errors import VerbTimeout
from repro.faults import CrashWindow, FaultPlan
from repro.locks import ALock
from repro.locks.alock.descriptors import descriptor_pair
from repro.locks.base import make_lock
from repro.sim.core import Interrupt

#: Every verb drops and the retry budget is tiny: each remote
#: acquisition fails fast with VerbTimeout.
DEAD_FABRIC = FaultPlan(verb_loss_rate=1.0, retry_timeout_ns=5_000.0,
                        retry_backoff=1.0, retry_limit=2)

#: The descriptors each lock kind keeps on a thread context once
#: ``lock()`` has run there.
HOLDERS = {
    "alock": lambda ctx: descriptor_pair(ctx),
    "mcs": lambda ctx: (ctx._mcs_descriptor,),
}


def _verbs_issued(cluster):
    return sum(cluster.network.verb_counts.values())


def _rx_state(cluster):
    return [(nic.rx.in_use, nic.rx.queue_length)
            for nic in cluster.network.nics]


@pytest.mark.parametrize("kind", sorted(HOLDERS))
class TestEveryDescriptorHolder:
    """Lock homed on node 1, taken by a thread on node 0: ALock's remote
    cohort (its first verb is the rCAS on node 1's tail) and MCS's
    loopback descriptor init (its first verb lands on node 0)."""

    def test_verb_timeout_returns_descriptor_and_rx(self, kind):
        cluster = Cluster(2, seed=7, faults=DEAD_FABRIC, audit="off")
        lock = make_lock(kind, cluster, 1)
        ctx = cluster.thread_ctx(0, 0)
        seen = []

        def proc():
            for _ in range(2):
                issued = _verbs_issued(cluster)
                with pytest.raises(VerbTimeout):
                    yield from lock.lock(ctx)
                seen.append((_verbs_issued(cluster) > issued,
                             [d.in_use for d in HOLDERS[kind](ctx)],
                             _rx_state(cluster)))

        p = cluster.env.process(proc())
        cluster.run()
        assert p.ok, p.value
        # both attempts reached the network (the retry is not a
        # ProtocolError on a descriptor still marked in use), and each
        # left every descriptor free and every RX pipeline idle
        idle = [(0, 0), (0, 0)]
        n_desc = len(HOLDERS[kind](ctx))
        assert seen == [(True, [False] * n_desc, idle)] * 2

    def test_interrupt_queued_at_rx_returns_descriptor_and_rx(self, kind):
        cluster = Cluster(2, seed=7, audit="off")
        env = cluster.env
        lock = make_lock(kind, cluster, 1)
        ctx = cluster.thread_ctx(0, 0)
        hold_ns = 50_000.0
        # every RX pipeline busy: the victim's first verb queues at
        # whichever one it lands on
        for nic in cluster.network.nics:
            env.process(nic.rx.serve(hold_ns))
        log = []

        def victim():
            try:
                yield from lock.lock(ctx)
            except Interrupt:
                log.append(("interrupted",
                            [d.in_use for d in HOLDERS[kind](ctx)],
                            _rx_state(cluster)))
            issued = _verbs_issued(cluster)
            yield from lock.lock(ctx)
            log.append(("acquired", lock.holder_gid == ctx.gid,
                        _verbs_issued(cluster) > issued))
            yield from lock.unlock(ctx)

        proc = env.process(victim())

        def assassin():
            yield hold_ns / 2
            log.append(("queued", sum(q for _, q in _rx_state(cluster))))
            proc.interrupt("stop")

        env.process(assassin())
        cluster.run()
        assert proc.ok, proc.value
        n_desc = len(HOLDERS[kind](ctx))
        assert log == [
            ("queued", 1),
            # the dead verb's queued grant is withdrawn; the blockers
            # still hold their slots
            ("interrupted", [False] * n_desc, [(1, 0), (1, 0)]),
            ("acquired", True, True),
        ]
        assert _rx_state(cluster) == [(0, 0), (0, 0)]
        assert [d.in_use for d in HOLDERS[kind](ctx)] == [False] * n_desc


class TestDescriptorLeakOnFailure:
    def test_pair_descriptor_reusable_after_failure(self):
        """A failed attempt must not leave the pair descriptor in-use —
        the retry would die with ProtocolError instead of reaching the
        network again."""
        cluster = Cluster(2, seed=7, faults=DEAD_FABRIC, audit="off")
        lock = ALock(cluster, 1)
        ctx = cluster.thread_ctx(0, 0)
        outcomes = []

        def proc():
            for _ in range(3):
                try:
                    yield from lock.lock(ctx)
                    outcomes.append("acquired")
                except VerbTimeout:
                    outcomes.append("timeout")

        p = cluster.env.process(proc())
        cluster.run()
        assert p.ok, p.value
        assert outcomes == ["timeout"] * 3
        local_desc, remote_desc = descriptor_pair(ctx)
        assert not remote_desc.in_use
        assert not local_desc.in_use

    def test_acquisition_succeeds_after_crash_window_ends(self):
        """End-to-end recovery: attempts during a crash window fail with
        VerbTimeout, and once the node restarts the *same* descriptor
        carries a successful acquisition."""
        plan = FaultPlan(crash_windows=(CrashWindow(1, 0.0, 50_000.0),),
                         retry_timeout_ns=5_000.0, retry_backoff=1.0,
                         retry_limit=2)
        cluster = Cluster(2, seed=7, faults=plan, audit="off")
        lock = ALock(cluster, 1)
        ctx = cluster.thread_ctx(0, 0)
        env = cluster.env
        log = []

        def proc():
            with pytest.raises(VerbTimeout):
                yield from lock.lock(ctx)
            log.append("crashed")
            yield env.timeout(60_000.0 - env.now)   # node 1 restarts
            yield from lock.lock(ctx)
            log.append(("acquired", lock.holder_gid == ctx.gid))
            yield from lock.unlock(ctx)

        p = env.process(proc())
        cluster.run()
        assert p.ok, p.value
        assert log == ["crashed", ("acquired", True)]
        assert cluster.fault_injector.crash_drops > 0
