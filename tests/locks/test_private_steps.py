"""The licence for ALock's fused sleeps: a private step commutes with
every step of every other thread.

A *private* store (``ThreadContext.private_write``) is applied where it
is issued and its cost rides with its owner's next visible step.  That
moves only the store's own instant, earlier into a stretch in which its
owner sleeps, so it can change nothing another thread sees as long as
no other thread reads, writes or watches the word between the store and
the owner's next step.  This module consumes the run's access sink
(:mod:`repro.memory.region`), beside the race auditor, and checks
exactly that, over a walk of the 2 × 2 exploration scenario and a
two-node contended cell; a store made private that is not (the lock's
own local stores to shared words) must be caught.
"""

import repro.cluster.context as context
import repro.locks.alock.alock as alock
import repro.schedcheck.scenario as scenario
from repro.memory.region import (LOCAL_READ, LOCAL_RMW, LOCAL_WRITE,
                                 PRIVATE_WRITE, RMW_END, UNWATCH, VERB_ISSUE)
from repro.schedcheck import explore_random
from tests.conftest import make_cluster_and_table, run_lock_clients
from tests.locks.helpers import single_lock
from tests.schedcheck.test_explore import ALOCK_2X2

STEPS = {LOCAL_READ, LOCAL_WRITE, LOCAL_RMW, VERB_ISSUE}  # the owner's visible steps
UNTOUCHED = {RMW_END, UNWATCH, VERB_ISSUE}  # touch no word's value or watchers


class Licence:
    """A consumer of the access sink: open windows ``(node, addr) ->
    owner``, from a private store to the owner's next visible step, and
    what broke them."""

    def __init__(self):
        self.windows: dict = {}
        self.private_stores = 0
        self.violations: list[str] = []

    def attach(self, cluster):
        """Consume ``cluster``'s accesses through one forwarding sink,
        after the race auditor if the cluster audits."""
        self.regions, audit, licence = cluster.regions, cluster.regions[0].sink, self.access
        self.windows.clear()

        def both(*access):
            audit(*access)
            licence(*access)
        for region in cluster.regions:
            region.sink = licence if audit is None else both

    def access(self, node, addr, kind, actor, time):
        region = self.regions[node]
        if kind == PRIVATE_WRITE:
            if region.watched(addr):
                self.violations.append(f"private store by {actor} to watched "
                                       f"{region.describe_word(addr)}")
            self.private_stores += 1
            self.windows[(node, addr)] = actor
            return
        owner = self.windows.get((node, addr))
        if owner is not None and actor != owner and kind not in UNTOUCHED:
            self.violations.append(f"{kind} by {actor} of {region.describe_word(addr)} "
                                   f"inside {owner}'s private window")
        if kind in STEPS:  # ``actor`` takes a visible step: its windows close
            for key in [k for k, o in self.windows.items() if o == actor]:
                del self.windows[key]


class EarlyWriter(context.ThreadContext):
    """Every local store of the lock made "private": applied where it is
    issued, its cost slept after — the victim store, a follower's link
    into its predecessor's ``next`` and the pass into a successor's
    ``budget``."""

    __slots__ = ()

    def write(self, ptr, value, *, carry=0.0):
        yield carry + self.private_write(ptr, value)


def observe(monkeypatch, *, public_stores_private=False):
    licence = Licence()
    if public_stores_private:
        # the contexts the runs build, and the local cohort's neighbour
        # store, which ALock binds from the class when it is built
        for module in (context, alock):
            monkeypatch.setattr(module, "ThreadContext", EarlyWriter)
    build = scenario.wire

    def wire(spec, *, obs):
        cluster, table = build(spec, obs=obs)
        licence.attach(cluster)
        return cluster, table

    monkeypatch.setattr(scenario, "wire", wire)
    walk = explore_random(ALOCK_2X2, 300, seed=3)
    cluster, table = make_cluster_and_table(
        "alock", n_nodes=2, n_locks=2,
        lock_options={"local_budget": 2, "remote_budget": 2})
    licence.attach(cluster)
    assert run_lock_clients(cluster, table, threads_per_node=3, ops_per_thread=20,
                            pick_lock=single_lock) == 120
    table.check_counters(120)
    cluster.auditor.assert_clean()
    return licence, walk


def test_no_thread_sees_a_private_store_before_its_owners_next_step(monkeypatch):
    licence, walk = observe(monkeypatch)
    assert walk.ok_count == walk.schedules_run == 300
    assert walk.distinct_executions > 100  # the walk is not one schedule
    # two per acquisition (the reset), a third for a leader's budget
    assert licence.private_stores > 2 * 300 * ALOCK_2X2.expected_ops
    assert licence.violations == []


def test_public_words_stored_privately_are_caught(monkeypatch):
    """A pass into the budget word its successor is parked on, and a
    link its predecessor reads while the linker sleeps.  (The victim
    store alone goes unseen here: its other readers and writers are the
    remote leader's verbs, a round trip apart, so neither run lands one
    inside its window, 200 ns in the cell — sampled, not proven, like
    every schedule this module runs.)"""
    licence, _walk = observe(monkeypatch, public_stores_private=True)
    words = {v.split(" inside ")[0].rsplit(".", 1)[-1] if " inside " in v
             else "watched " + v.rsplit(".", 1)[-1] for v in licence.violations}
    assert words >= {"watched budget", "budget", "next"}, licence.violations[:5]
