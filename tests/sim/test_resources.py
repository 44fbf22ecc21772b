"""Unit tests for Resource and Store."""

import pytest

from repro.common.errors import SimulationError
from repro.sim import Environment, Resource, Store


@pytest.fixture()
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_immediate_grant_below_capacity(self, env):
        res = Resource(env, capacity=2)
        granted = []

        def proc(i):
            yield res.request()
            granted.append((i, env.now))

        env.process(proc(0))
        env.process(proc(1))
        env.run()
        assert [g[1] for g in granted] == [0, 0]
        assert res.in_use == 2

    def test_fifo_queueing(self, env):
        res = Resource(env, capacity=1)
        order = []

        def proc(i, hold):
            yield res.request()
            order.append((i, env.now))
            yield env.timeout(hold)
            res.release()

        for i in range(3):
            env.process(proc(i, 10))
        env.run()
        assert order == [(0, 0), (1, 10), (2, 20)]

    def test_release_idle_raises(self, env):
        res = Resource(env)
        with pytest.raises(SimulationError):
            res.release()

    def test_serve_helper(self, env):
        res = Resource(env, capacity=1)
        finish = []

        def proc(i):
            yield from res.serve(100)
            finish.append((i, env.now))

        env.process(proc(0))
        env.process(proc(1))
        env.run()
        assert finish == [(0, 100), (1, 200)]
        assert res.in_use == 0

    def test_utilization_full_server(self, env):
        res = Resource(env, capacity=1)

        def proc():
            yield from res.serve(100)

        env.process(proc())
        env.run()
        assert res.utilization() == pytest.approx(1.0)

    def test_utilization_half_busy(self, env):
        res = Resource(env, capacity=2)

        def proc():
            yield from res.serve(100)

        env.process(proc())
        env.run()
        assert res.utilization() == pytest.approx(0.5)

    def test_peak_queue_tracks_backlog(self, env):
        res = Resource(env, capacity=1)

        def proc():
            yield from res.serve(10)

        for _ in range(5):
            env.process(proc())
        env.run()
        assert res.peak_queue == 4
        assert res.total_served == 5

    def test_queue_length_live(self, env):
        res = Resource(env, capacity=1)
        observed = {}

        def holder():
            yield res.request()
            yield env.timeout(50)
            res.release()

        def waiter():
            yield res.request()
            res.release()

        def observer():
            yield env.timeout(10)
            observed["qlen"] = res.queue_length

        env.process(holder())
        env.process(waiter())
        env.process(observer())
        env.run()
        assert observed["qlen"] == 1


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        store.put("a")
        got = {}

        def proc():
            got["v"] = yield store.get()

        env.process(proc())
        env.run()
        assert got["v"] == "a"

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        got = {}

        def consumer():
            got["v"] = yield store.get()
            got["t"] = env.now

        def producer():
            yield env.timeout(30)
            store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == {"v": "late", "t": 30}

    def test_fifo_ordering(self, env):
        store = Store(env)
        got = []

        def consumer():
            for _ in range(3):
                v = yield store.get()
                got.append(v)

        env.process(consumer())
        for v in (1, 2, 3):
            store.put(v)
        env.run()
        assert got == [1, 2, 3]

    def test_len_and_waiting(self, env):
        store = Store(env)
        assert len(store) == 0
        store.put(1)
        assert len(store) == 1

        def consumer():
            yield store.get()
            yield store.get()  # blocks

        env.process(consumer())
        env.run()
        assert store.waiting_getters == 1
