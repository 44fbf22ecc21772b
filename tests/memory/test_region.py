"""Tests for MemoryRegion: word ops, allocation, watchers, signedness."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import MemoryError_
from repro.memory import MemoryRegion
from repro.memory.pointer import CACHE_LINE, ptr_addr, ptr_node
from repro.memory.region import from_signed, to_signed
from repro.sim import Environment


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def region(env):
    return MemoryRegion(env, node_id=1, size_bytes=4096)


class TestSignedness:
    @given(st.integers(-(2**63), 2**63 - 1))
    def test_signed_round_trip(self, v):
        assert to_signed(from_signed(v)) == v

    def test_minus_one_is_all_ones(self):
        assert from_signed(-1) == (1 << 64) - 1

    def test_region_signed_read(self, region):
        region.write(64, -1)
        assert region.read_signed(64) == -1
        assert region.read(64) == (1 << 64) - 1


class TestWordOps:
    def test_zero_initialized(self, region):
        assert region.read(128) == 0

    def test_write_read(self, region):
        region.write(64, 0xDEADBEEF)
        assert region.read(64) == 0xDEADBEEF

    def test_cas_success_returns_old(self, region):
        region.write(64, 5)
        old = region.cas(64, 5, 9)
        assert old == 5
        assert region.read(64) == 9

    def test_cas_failure_no_write(self, region):
        region.write(64, 5)
        old = region.cas(64, 7, 9)
        assert old == 5
        assert region.read(64) == 5

    def test_cas_with_negative_expected(self, region):
        region.write(64, -1)
        old = region.cas(64, -1, 0)
        assert to_signed(old) == -1
        assert region.read(64) == 0

    def test_faa(self, region):
        region.write(64, 10)
        assert to_signed(region.faa(64, -3)) == 10
        assert region.read_signed(64) == 7

    def test_misaligned_access(self, region):
        with pytest.raises(MemoryError_):
            region.read(65)

    def test_out_of_bounds(self, region):
        with pytest.raises(MemoryError_):
            region.read(4096)
        with pytest.raises(MemoryError_):
            region.write(-8, 1)

    def test_stat_counters(self, region):
        region.read(64)
        region.write(64, 1)
        region.cas(64, 1, 2)
        region.faa(64, 1)
        assert region.local_reads == 1
        assert region.local_writes == 1
        assert region.local_rmws == 2


class TestRemoteLanding:
    def test_remote_write_then_local_read(self, region):
        region.remote_write(64, 77)
        assert region.read(64) == 77
        assert region.remote_ops_landed == 1

    def test_two_phase_rmw_lost_update(self, region):
        """A local write inside a remote CAS window is overwritten —
        the Table-1 hazard, reproduced mechanically."""
        region.write(64, 0)
        observed = region.remote_rmw_read(64)       # NIC reads 0
        assert observed == 0
        region.write(64, 123)                       # local write lands in window
        region.remote_rmw_commit(64, 1)             # NIC writes back CAS result
        assert region.read(64) == 1                 # 123 was lost


class TestAllocation:
    def test_first_line_reserved(self, region):
        assert region.alloc(8) >= CACHE_LINE

    def test_alignment(self, region):
        region.alloc(8, align=8)
        addr = region.alloc(64, align=64)
        assert addr % 64 == 0

    def test_alloc_ptr_packs_node(self, region):
        p = region.alloc_ptr(64)
        assert ptr_node(p) == 1
        assert ptr_addr(p) % 64 == 0

    def test_exhaustion(self, env):
        small = MemoryRegion(env, 0, 256)
        small.alloc(128)
        with pytest.raises(MemoryError_):
            small.alloc(128)  # only 64B left after reserved line

    def test_bad_sizes(self, region):
        with pytest.raises(MemoryError_):
            region.alloc(0)
        with pytest.raises(MemoryError_):
            region.alloc(8, align=3)

    def test_region_size_validation(self, env):
        with pytest.raises(MemoryError_):
            MemoryRegion(env, 0, 100)  # not a cache-line multiple


class TestWatchers:
    def test_watch_fires_on_local_write(self, env, region):
        got = {}

        def waiter():
            got["v"] = yield region.watch(64)

        env.process(waiter())

        def writer():
            yield env.timeout(10)
            region.write(64, 42)

        env.process(writer())
        env.run()
        assert got["v"] == (64, 42)

    def test_watch_fires_on_remote_write(self, env, region):
        got = {}

        def waiter():
            got["v"] = yield region.watch(64)

        env.process(waiter())

        def writer():
            yield env.timeout(5)
            region.remote_write(64, 7)

        env.process(writer())
        env.run()
        assert got["v"] == (64, 7)

    def test_watch_is_one_shot(self, env, region):
        hits = []

        def waiter():
            v = yield region.watch(64)
            hits.append(v)

        env.process(waiter())

        def writer():
            yield env.timeout(1)
            region.write(64, 1)
            region.write(64, 2)

        env.process(writer())
        env.run()
        assert hits == [(64, 1)]

    def test_watch_any_fires_once(self, env, region):
        got = []

        def waiter():
            v = yield region.watch_any([64, 72])
            got.append(v)

        env.process(waiter())

        def writer():
            yield env.timeout(1)
            region.write(72, 9)
            region.write(64, 8)

        env.process(writer())
        env.run()
        assert got == [(72, 9)]

    def test_unwatch_withdraws_a_pending_watcher(self, env, region):
        """The owner found its condition true without parking: the next
        write must not dispatch an event for nobody, and the watchers
        that are parked keep their order."""
        woke = []

        def waiter(tag):
            yield region.watch(64)
            woke.append(tag)

        env.process(waiter("a"))
        env.run()
        ghost = region.watch(64)
        env.process(waiter("b"))
        env.run()
        region.unwatch(ghost, (64,))
        assert region.watcher_count() == 2
        before = env.event_count
        region.write(64, 1)
        env.run()
        assert woke == ["a", "b"] and not ghost.triggered
        # the two wake-ups and the two finished processes, nothing else
        assert env.event_count - before == 4
        assert region.watcher_count() == 0

    def test_unwatch_covers_every_word_and_tolerates_a_fired_one(self, env,
                                                                 region):
        ev = region.watch_any([64, 72])
        region.unwatch(ev, [64, 72])
        assert region.watcher_count() == 0
        fired = region.watch_any([64, 72])
        region.write(64, 1)             # fires it; 72's entry goes stale
        region.unwatch(fired, [64, 72])
        assert region.watcher_count() == 0
        region.unwatch(fired, [64, 72])  # idempotent
        env.run()

    def test_fired_entries_are_swept_on_append(self, env, region):
        """watch_any events fired through one word pile up under a word
        nobody writes; appends sweep them, so the list stays bounded."""
        for i in range(1000):
            region.watch_any([64, 72])
            region.write(64, i)         # fires it; 72's entry goes stale
            assert region.watcher_count() < 16
        env.run()

    def test_sweep_keeps_pending_entries_in_order(self, env, region):
        woke = []

        def waiter(tag):
            yield region.watch(72)
            woke.append(tag)

        for tag in range(5):
            env.process(waiter(tag))
        env.run()
        for i in range(40):             # several sweeps of 72's list
            region.watch_any([64, 72])
            region.write(64, i)
        assert region.watcher_count() < 5 + 16
        region.write(72, 1)
        env.run()
        assert woke == [0, 1, 2, 3, 4]

    def test_rmw_commit_wakes_watcher(self, env, region):
        """The MCS wakeup path: predecessor's remote write-back must wake
        a spinner parked on the word."""
        got = {}

        def waiter():
            got["v"] = yield region.watch(64)

        env.process(waiter())

        def remote():
            yield env.timeout(3)
            region.remote_rmw_read(64)
            region.remote_rmw_commit(64, 55)

        env.process(remote())
        env.run()
        assert got["v"] == (64, 55)


class TestWatcherBoundOnLocalRun:
    def test_watcher_count_stays_bounded_over_an_all_local_run(self, monkeypatch):
        """An uncontended ``wait_local_cond`` leaves its watch_any event
        registered; the copy under ``tail_r`` — a word a 100%-local run
        never writes — used to pile up for the whole run (856
        registrations at the longer window below, and growing)."""
        from repro.workload import WorkloadSpec, runner

        clusters = []
        build = runner.build_cluster

        def tapped(spec, **kwargs):
            built = build(spec, **kwargs)
            clusters.append(built[0])
            return built

        monkeypatch.setattr(runner, "build_cluster", tapped)
        held = []
        for measure_ns in (50_000, 200_000):
            result = runner.run_workload(WorkloadSpec(
                lock_kind="alock", n_nodes=2, threads_per_node=3, n_locks=4,
                locality_pct=100, measure_ns=measure_ns, warmup_ns=10_000,
                audit="off", seed=0))
            assert result.completed_ops > 400
            held.append(sum(r.watcher_count() for r in clusters[-1].regions))
        # 4 locks x (victim, tail_r) lists, each under twice its few
        # pending entries — and no larger for a 4x longer run
        assert max(held) < 40
