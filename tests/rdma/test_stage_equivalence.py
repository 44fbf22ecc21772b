"""The verb path's flat stage calls against the rules they replaced.

``Pipeline.transit`` used to find the earliest-free server with
``min(free_at)`` and ``free_at.index(...)`` over servers kept in index
order; it now keeps the free-at times ascending and books the head.
The QPC touch used to be two calls — the cache's boolean ``access`` and
the NIC's penalty accounting around it — and is now one
``QpcCache.touch``.  Both old rules are kept here as references and
replayed beside the new ones on random booking and access sequences.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.rdma.qp import QpcCache
from repro.sim.core import Environment
from repro.sim.resources import Pipeline


class _MinIndexPipeline:
    """The old ``Pipeline`` booking rule, verbatim."""

    def __init__(self, env, capacity):
        self.env = env
        self.capacity = capacity
        self._free_at = [env.now] * capacity
        self._booked_ns = 0.0
        self._started_at = env.now
        self.total_served = 0

    def transit(self, service_ns):
        now = self.env._now
        free_at = self._free_at
        start = min(free_at)
        server = free_at.index(start)
        if start < now:
            start = now
        free_at[server] = end = start + service_ns
        self._booked_ns += service_ns
        self.total_served += 1
        return end - now

    def utilization(self):
        now = self.env._now
        elapsed = now - self._started_at
        if elapsed <= 0:
            return 0.0
        busy = self._booked_ns
        for free_at in self._free_at:
            if free_at > now:
                busy -= free_at - now
        return busy / (elapsed * self.capacity)


def _replay(pipeline_cls, capacity, gaps, services):
    """Book ``services`` at the arrival times the ``gaps`` give (a zero
    gap is a simultaneous arrival), reading utilization every third
    booking and once the backlog has partly drained.  Returns the
    departure delays, the utilization readings and ``total_served``."""
    env = Environment()
    stage = pipeline_cls(env, capacity)
    delays, utilization = [], []
    for i, (gap, service) in enumerate(zip(gaps, services)):
        if gap > 0:
            env.run(until=env.now + gap)
        delays.append(stage.transit(service))
        if i % 3 == 0:
            utilization.append(stage.utilization())
    env.run(until=env.now + float(sum(services)) / (2 * capacity))
    utilization.append(stage.utilization())
    return delays, utilization, stage.total_served


def _arrivals(seed, n, gap, service):
    """Bursts of simultaneous arrivals between gaps, so queues build up
    and drain, with varied service (TX adds a QPC penalty on a miss)."""
    rng = np.random.default_rng(seed)
    return (np.where(rng.random(n) < 0.4, 0, gap(rng, n)).tolist(),
            service(rng, n).tolist())


@pytest.mark.parametrize("capacity", [1, 2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_pipeline_matches_min_index_rule(capacity, seed):
    """Departure delays, ``total_served`` and ``utilization()`` are those
    of the old rule, exactly.  Times are drawn on a 1/8 ns grid, where
    every sum is exact: ``utilization()`` subtracts the service still
    to come server by server — in free-at order now, in server-index
    order before — and on arbitrary floats the two orders may round the
    last bit differently (the next test)."""
    gaps, services = _arrivals(seed, 400,
                               lambda rng, n: rng.integers(1, 400, n) / 8,
                               lambda rng, n: rng.integers(1, 800, n) / 8)
    assert (_replay(Pipeline, capacity, gaps, services)
            == _replay(_MinIndexPipeline, capacity, gaps, services))


@pytest.mark.parametrize("capacity", [1, 2, 3])
def test_pipeline_departures_exact_on_arbitrary_floats(capacity):
    gaps, services = _arrivals(99, 400,
                               lambda rng, n: rng.uniform(0, 50, n),
                               lambda rng, n: rng.uniform(0.1, 100, n))
    delays, util, served = _replay(Pipeline, capacity, gaps, services)
    ref_delays, ref_util, ref_served = _replay(_MinIndexPipeline, capacity,
                                               gaps, services)
    assert (delays, served) == (ref_delays, ref_served)
    # the same quantity, its in-flight part summed in another order
    assert util == pytest.approx(ref_util, rel=1e-12)


class _TwoCallQpc:
    """The old QPC step: the cache's boolean ``access``, and the NIC's
    ``_qpc_penalty`` charging the reload around it."""

    def __init__(self, capacity, miss_penalty_ns):
        self.capacity = capacity
        self._entries = OrderedDict()
        self.hits = self.misses = self.evictions = 0
        self._miss_penalty_ns = float(miss_penalty_ns)
        self.penalty_ns_total = 0.0

    def access(self, qp):
        if qp in self._entries:
            self._entries.move_to_end(qp)
            self.hits += 1
            return True
        self.misses += 1
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[qp] = None
        return False

    def penalty(self, qp):
        if self.access(qp):
            return 0.0
        self.penalty_ns_total += self._miss_penalty_ns
        return self._miss_penalty_ns


@pytest.mark.parametrize("capacity", [1, 4, 16])
def test_qpc_touch_matches_two_call_version(capacity):
    """A thrashing sequence — a working set twice the cache, cycled
    round-robin, then drawn at random with a hot subset — gives the same
    penalties, hits, misses, evictions and penalty total."""
    rng = np.random.default_rng(capacity)
    qps = [(i % 5, i // 5, (i * 7) % 5) for i in range(2 * capacity + 1)]
    seq = qps * 3 + [qps[int(i)] for i in rng.integers(0, len(qps), 500)]
    seq += [qps[int(i)] for i in rng.integers(0, max(1, capacity // 2), 200)]
    new, old = QpcCache(capacity, 310.0), _TwoCallQpc(capacity, 310.0)
    assert [new.touch(qp) for qp in seq] == [old.penalty(qp) for qp in seq]
    assert (new.hits, new.misses, new.evictions, new.penalty_ns_total) == (
        old.hits, old.misses, old.evictions, old.penalty_ns_total)
    assert new.misses > 2 * capacity and new.evictions > 0
    assert list(new._entries) == list(old._entries)
