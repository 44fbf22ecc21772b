"""The licence for ALock's fused sleeps: a private step commutes with
every step of every other thread.

A *private* store (``ThreadContext.private_write``) is applied where it
is issued and its cost rides with its owner's next visible step.  That
moves only the store's own instant, earlier into a stretch in which its
owner sleeps, so it can change nothing another thread sees as long as
no other thread reads, writes or watches the word between the store and
the owner's next step.  This module observes every word access through
the region's public accessors and checks exactly that, over a walk of
the 2 × 2 exploration scenario and a two-node contended cell; a store
made private that is not (the lock's own local stores to shared words)
must be caught.
"""

from repro.cluster import ThreadContext
from repro.memory.region import MemoryRegion
from repro.schedcheck import explore_random
from tests.locks.helpers import single_lock, stress
from tests.schedcheck.test_explore import ALOCK_2X2

LOCAL_ACCESSORS = ("read", "write", "cas", "faa")
REMOTE_ACCESSORS = ("remote_read", "remote_write", "remote_rmw_read",
                    "remote_rmw_commit")
VERBS = ("r_read", "r_write", "r_cas", "r_faa")


class Licence:
    """Open windows ``(region, addr) -> owner``, from a private store to
    the owner's next visible step, and what broke them."""

    def __init__(self):
        self.windows: dict = {}
        self.watchers: dict = {}   # (region, addr) -> watch events
        self.private_by = None     # the actor inside private_write
        self.private_stores = 0
        self.violations: list[str] = []

    def touch(self, region, addr, actor, what):
        owner = self.windows.get((region, addr))
        if owner is not None and actor != owner:
            self.violations.append(f"{what} by {actor} of {region.describe_word(addr)} "
                                   f"inside {owner}'s private window")

    def acts(self, actor):
        """``actor`` takes a visible step: its windows close."""
        for key in [k for k, owner in self.windows.items() if owner == actor]:
            del self.windows[key]

    def install(self, monkeypatch):
        def local(name, original):
            def accessor(region, addr, *args):
                actor = args[-1]
                if name == "write" and actor == self.private_by:
                    watched = [ev for ev in self.watchers.get((region, addr), ())
                               if not ev.triggered]
                    if watched:
                        self.violations.append(
                            f"private store by {actor} to watched "
                            f"{region.describe_word(addr)}")
                    self.private_stores += 1
                    self.windows[(region, addr)] = actor
                else:
                    self.touch(region, addr, actor, name)
                    self.acts(actor)
                return original(region, addr, *args)
            return accessor

        def remote(name, original):
            def accessor(region, addr, *args):
                self.touch(region, addr, "a verb", name)
                return original(region, addr, *args)
            return accessor

        def watch(original):
            def accessor(region, addr):
                ev = original(region, addr)
                self.register(region, (addr,), ev)
                return ev
            return accessor

        def watch_any(original):
            def accessor(region, addrs):
                ev = original(region, addrs)
                self.register(region, addrs, ev)
                return ev
            return accessor

        def unwatch(original):
            def accessor(region, ev, addrs):
                for addr in addrs:
                    listed = self.watchers.get((region, addr), [])
                    if ev in listed:
                        listed.remove(ev)
                return original(region, ev, addrs)
            return accessor

        def private_write(original):
            def op(ctx, ptr, value):
                self.private_by = ctx.actor
                try:
                    return original(ctx, ptr, value)
                finally:
                    self.private_by = None
            return op

        def verb(original):
            def op(ctx, *args, **kwargs):
                if not kwargs.get("carry"):  # issued now; a carried verb
                    self.acts(ctx.actor)     # re-enters after its sleep
                return original(ctx, *args, **kwargs)
            return op

        for name in LOCAL_ACCESSORS:
            monkeypatch.setattr(MemoryRegion, name, local(name, getattr(MemoryRegion, name)))
        for name in REMOTE_ACCESSORS:
            monkeypatch.setattr(MemoryRegion, name, remote(name, getattr(MemoryRegion, name)))
        monkeypatch.setattr(MemoryRegion, "watch", watch(MemoryRegion.watch))
        monkeypatch.setattr(MemoryRegion, "watch_any", watch_any(MemoryRegion.watch_any))
        monkeypatch.setattr(MemoryRegion, "unwatch", unwatch(MemoryRegion.unwatch))
        monkeypatch.setattr(ThreadContext, "private_write",
                            private_write(ThreadContext.private_write))
        for name in VERBS:
            monkeypatch.setattr(ThreadContext, name, verb(getattr(ThreadContext, name)))

    def register(self, region, addrs, ev):
        for addr in addrs:
            # the owner sleeps through its window: a registration is another's
            self.touch(region, addr, "a waiter", "watch")
            self.watchers.setdefault((region, addr), []).append(ev)


def _write_early(ctx, ptr, value, *, carry=0.0):
    """``ThreadContext.write`` applied where it is issued, its cost slept
    after: every local store of the lock made "private" — the victim
    store, a follower's link into its predecessor's ``next`` and the
    pass into a successor's ``budget``."""
    yield carry + ctx.private_write(ptr, value)


def observe(monkeypatch, *, public_stores_private=False):
    licence = Licence()
    licence.install(monkeypatch)
    if public_stores_private:
        monkeypatch.setattr(ThreadContext, "write", _write_early)
    walk = explore_random(ALOCK_2X2, 300, seed=3)
    stress("alock", n_nodes=2, threads_per_node=3, n_locks=2, ops_per_thread=20,
           pick_lock=single_lock, lock_options={"local_budget": 2, "remote_budget": 2})
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
