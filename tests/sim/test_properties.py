"""Property-based tests of the simulation engine (hypothesis).

Invariants under arbitrary schedules of timeouts, events, and resource
usage: the clock never runs backwards, event ordering is deterministic,
resources conserve slots, and stores conserve items.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Pipeline, Resource, Store

# Keep generated schedules small; the invariants are about *ordering*,
# not volume.
delays = st.lists(st.floats(min_value=0.0, max_value=1000.0,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=30)


class TestClockInvariants:
    @given(delays)
    @settings(max_examples=60)
    def test_time_is_monotone_across_callbacks(self, ds):
        env = Environment()
        observed = []

        def proc(d):
            yield env.timeout(d)
            observed.append(env.now)

        for d in ds:
            env.process(proc(d))
        env.run()
        assert observed == sorted(observed)
        assert len(observed) == len(ds)

    @given(delays)
    @settings(max_examples=60)
    def test_completion_times_equal_delays(self, ds):
        env = Environment()
        done = {}

        def proc(i, d):
            yield env.timeout(d)
            done[i] = env.now

        for i, d in enumerate(ds):
            env.process(proc(i, d))
        env.run()
        assert all(done[i] == d for i, d in enumerate(ds))

    @given(delays)
    @settings(max_examples=40)
    def test_determinism_under_replay(self, ds):
        def trace():
            env = Environment()
            log = []

            def proc(i, d):
                yield env.timeout(d)
                log.append((i, env.now))
                yield env.timeout(d / 2 + 1)
                log.append((i, env.now))

            for i, d in enumerate(ds):
                env.process(proc(i, d))
            env.run()
            return log

        assert trace() == trace()


class TestResourceInvariants:
    @given(st.integers(1, 5), st.lists(st.floats(1.0, 50.0), min_size=1,
                                       max_size=25))
    @settings(max_examples=50)
    def test_slots_conserved(self, capacity, holds):
        env = Environment()
        res = Resource(env, capacity=capacity)
        max_seen = [0]

        def proc(hold):
            yield res.request()
            max_seen[0] = max(max_seen[0], res.in_use)
            assert res.in_use <= capacity
            yield env.timeout(hold)
            res.release()

        for hold in holds:
            env.process(proc(hold))
        env.run()
        assert res.in_use == 0
        assert res.total_served == len(holds)
        assert max_seen[0] <= capacity

    @given(st.lists(st.floats(1.0, 20.0), min_size=2, max_size=15))
    @settings(max_examples=50)
    def test_fifo_grant_order(self, holds):
        env = Environment()
        res = Resource(env, capacity=1)
        grants = []

        def proc(i, hold):
            yield res.request()
            grants.append(i)
            yield env.timeout(hold)
            res.release()

        for i, hold in enumerate(holds):
            env.process(proc(i, hold))
        env.run()
        assert grants == list(range(len(holds)))

    @given(st.integers(1, 4), st.lists(st.floats(1.0, 30.0), min_size=1,
                                       max_size=20))
    @settings(max_examples=40)
    def test_utilization_bounded(self, capacity, holds):
        env = Environment()
        res = Resource(env, capacity=capacity)

        def proc(hold):
            yield from res.serve(hold)

        for hold in holds:
            env.process(proc(hold))
        env.run()
        assert 0.0 <= res.utilization() <= 1.0 + 1e-9


#: (gap since the previous arrival, service time), in whole ns so every
#: sum is exact: gap 0 is a simultaneous arrival
arrivals = st.lists(st.tuples(st.integers(0, 20), st.integers(1, 30)),
                    min_size=1, max_size=25)


class TestPipelineIsAFifoResource:
    """Same durations, fewer slots: a ``Pipeline`` and ``yield from
    resource.serve(t)`` give every arrival the same departure time."""

    @staticmethod
    def run(stage_cls, capacity, plan, probes):
        env = Environment()
        stage = stage_cls(env, capacity)
        departed = {}
        seen = []

        def client(i, at, service):
            yield at
            if stage_cls is Pipeline:
                yield stage.transit(service)
            else:
                yield from stage.serve(service)
            departed[i] = env.now

        def observer():
            for at in probes:
                yield at - env.now
                seen.append((env.now, stage.utilization()))

        at = 0.0
        for i, (gap, service) in enumerate(plan):
            at += gap
            env.process(client(i, at, float(service)))
        env.process(observer())
        env.run()
        return departed, seen, stage.total_served, stage.utilization(), \
            env.event_count

    @given(st.sampled_from([1, 2]), arrivals,
           st.lists(st.integers(0, 300), max_size=6))
    @settings(max_examples=120)
    def test_same_departures_served_and_utilization(self, capacity, plan,
                                                    probe_at):
        # read utilization() off the arrival grid, mid-backlog included:
        # booked service must count only up to ``now``
        probes = sorted({t + 0.25 for t in probe_at})
        want = self.run(Resource, capacity, plan, probes)
        got = self.run(Pipeline, capacity, plan, probes)
        assert got[:4] == want[:4]
        # ... for one dispatch per arrival where the queue took up to two
        assert got[4] <= want[4]

    def test_an_idle_stage_and_a_backlog(self):
        env = Environment()
        pipe = Pipeline(env, capacity=2)
        assert pipe.transit(10.0) == 10.0       # idle server: no wait
        assert pipe.transit(4.0) == 4.0         # second lane
        assert pipe.transit(1.0) == 5.0         # behind the 4 ns op
        assert pipe.transit(1.0) == 6.0         # FIFO: behind that one
        assert pipe.total_served == 4 and pipe.utilization() == 0.0
        env.run(until=5.0)
        # lane one busy 0-5 of its 10, lane two 0-5: nothing beyond now
        assert pipe.utilization() == 1.0
        env.run(until=20.0)
        assert pipe.utilization() == 16.0 / 40.0
        assert pipe.transit(3.0) == 3.0         # the backlog is history


class TestStoreInvariants:
    @given(st.lists(st.integers(), min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_items_conserved_in_order(self, items):
        env = Environment()
        store = Store(env)
        received = []

        def consumer():
            for _ in items:
                v = yield store.get()
                received.append(v)

        env.process(consumer())
        for item in items:
            store.put(item)
        env.run()
        assert received == items

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=30)
    def test_many_producers_consumers_conserve(self, n_prod, n_cons):
        env = Environment()
        store = Store(env)
        per_prod = 6
        total = n_prod * per_prod
        received = []

        def producer(i):
            for j in range(per_prod):
                yield env.timeout(j + 1)
                store.put((i, j))

        def consumer(quota):
            for _ in range(quota):
                v = yield store.get()
                received.append(v)

        quotas = [total // n_cons] * n_cons
        quotas[0] += total - sum(quotas)
        for i in range(n_prod):
            env.process(producer(i))
        for q in quotas:
            env.process(consumer(q))
        env.run()
        assert sorted(received) == sorted(
            (i, j) for i in range(n_prod) for j in range(per_prod))
