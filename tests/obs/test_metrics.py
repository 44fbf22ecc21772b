"""Unit tests for the metrics registry: duration histograms read from the
span view, collectors pulled from subsystem counters."""

import pytest

from repro.obs import Observability
from repro.obs.log import INTERVALS, PROTOCOL, RING
from repro.obs.metrics import VERBS, Histogram, MetricsRegistry, _BUCKET_BOUNDS
from repro.obs.spans import LOCK_ACQUIRE, LOCK_RELEASE, VERB_RTT
from repro.sim import Environment


def timed(level=INTERVALS):
    """(env, log, registry) of a bundle recording at ``level``."""
    env = Environment()
    obs = Observability(env, level)
    return env, obs.log, obs.metrics


def interval(env, log, name, begin, duration, outcome="ok", actor="t0@n0"):
    """One ``name`` interval of ``duration`` ns, ending with ``outcome``."""
    log.emit(actor, "span.begin", name, *begin)
    env._now += duration
    log.emit(actor, "span.end", name, outcome)


def verb(env, log, duration, outcome="ok", name="rCAS", loopback=False,
         actor="t0@n0"):
    interval(env, log, VERB_RTT, (name, 1, loopback), duration, outcome, actor)


class TestDisabled:
    """Below ``INTERVALS`` there are no spans, so no histograms."""

    def test_collectors_work_while_disabled(self):
        reg = MetricsRegistry()
        reg.add_collector("sub", lambda: {"n": 3})
        assert reg.collect() == {"sub": {"n": 3}}

    @pytest.mark.parametrize("level", [RING, PROTOCOL])
    def test_no_histograms_below_intervals(self, level):
        env, log, reg = timed(level)
        verb(env, log, 100.0)
        assert reg.collect() == {}


class TestPush:
    """Observations into one :class:`Histogram`, as the view makes them."""

    def test_histogram_summary(self):
        env, log, reg = timed()
        for duration in (100.0, 200.0, 300.0):
            verb(env, log, duration)
        snap = reg.collect()["app"]["verb.rtt_ns"]["path=fabric,verb=rCAS"]
        assert snap["count"] == 3
        assert snap["sum_ns"] == 600.0
        assert snap["mean_ns"] == 200.0
        assert snap["min_ns"] == 100.0
        assert snap["max_ns"] == 300.0
        assert sum(snap["buckets"].values()) == 3

    def test_histogram_bucket_assignment(self):
        h = Histogram()
        h.observe(64.0)    # boundary: le_64
        h.observe(65.0)    # next bucket: le_128
        h.observe(1e12)    # beyond the largest finite bound: +inf
        buckets = h.snapshot()["buckets"]
        assert buckets["le_64"] == 1
        assert buckets["le_128"] == 1
        assert buckets["+inf"] == 1

    def test_bucket_bounds_sorted(self):
        assert list(_BUCKET_BOUNDS) == sorted(_BUCKET_BOUNDS)


class TestView:
    def test_every_verb_and_path_has_a_series(self):
        _, _, reg = timed()
        app = reg.collect()["app"]
        assert list(app) == ["verb.rtt_ns"]   # no lock kind seen yet
        assert app["verb.rtt_ns"] == {
            f"path={path},verb={name}": {"count": 0}
            for name in sorted(VERBS) for path in ("fabric", "loopback")}

    def test_series_by_verb_and_path(self):
        env, log, reg = timed()
        verb(env, log, 100.0, name="rRead", loopback=True)
        verb(env, log, 50.0, name="rRead")
        series = reg.collect()["app"]["verb.rtt_ns"]
        assert series["path=loopback,verb=rRead"]["sum_ns"] == 100.0
        assert series["path=fabric,verb=rRead"]["sum_ns"] == 50.0

    def test_a_lock_kind_shows_both_phases(self):
        env, log, reg = timed()
        interval(env, log, LOCK_ACQUIRE, ("l0", "mcs", 1), 400.0)
        phases = reg.collect()["app"]["lock.phase_ns"]
        assert phases["kind=mcs,phase=acquire"]["sum_ns"] == 400.0
        assert phases["kind=mcs,phase=release"] == {"count": 0}

    def test_only_ok_intervals_are_samples(self):
        env, log, reg = timed()
        verb(env, log, 10.0, outcome="timeout")
        interval(env, log, LOCK_RELEASE, ("l0", "alock", 0), 20.0, "error")
        # a verb left open when its lock op ends is abandoned with it
        log.emit("t0@n0", "span.begin", LOCK_ACQUIRE, "l0", "alock", 0)
        log.emit("t0@n0", "span.begin", VERB_RTT, "rCAS", 1, False)
        env._now += 30.0
        log.emit("t0@n0", "span.end", LOCK_ACQUIRE, "ok")
        app = reg.collect()["app"]
        assert app["verb.rtt_ns"]["path=fabric,verb=rCAS"] == {"count": 0}
        assert app["lock.phase_ns"]["kind=alock,phase=release"] == {"count": 0}
        assert app["lock.phase_ns"]["kind=alock,phase=acquire"]["sum_ns"] == 30.0

    def test_samples_are_summed_in_end_order(self):
        """Float addition is not associative: the view adds durations in
        the order their intervals ended, as a pushing wrapper did."""
        env, log, reg = timed()
        log.emit("a", "span.begin", VERB_RTT, "rCAS", 1, False)    # ends last
        for start in (10.0, 20.0):
            env._now = start
            verb(env, log, 1.0, actor="b")
        env._now = 2.0 ** 53
        log.emit("a", "span.end", VERB_RTT, "ok")
        snap = reg.collect()["app"]["verb.rtt_ns"]["path=fabric,verb=rCAS"]
        assert (2.0 ** 53 + 1.0) + 1.0 == 2.0 ** 53     # start order loses both
        assert snap["sum_ns"] == (1.0 + 1.0) + 2.0 ** 53 == 2.0 ** 53 + 2.0


class TestTree:
    def make(self):
        env, log, reg = timed()
        reg.add_collector("network", lambda: {"verbs": {"rCAS": 7},
                                              "nics": [{"tx": 1}, {"tx": 2}]})
        verb(env, log, 3.0)
        return reg

    def test_collect_merges_collectors_and_app(self):
        tree = self.make().collect()
        assert tree["network"]["verbs"]["rCAS"] == 7
        assert tree["app"]["verb.rtt_ns"]["path=fabric,verb=rCAS"]["sum_ns"] == 3.0

    def test_flat_dotted_paths(self):
        flat = self.make().flat()
        assert flat["network.verbs.rCAS"] == 7
        assert flat["network.nics.1.tx"] == 2
        assert flat["app.verb.rtt_ns.path=fabric,verb=rCAS.count"] == 1
        assert list(flat) == sorted(flat)

    def test_query_path(self):
        reg = self.make()
        assert reg.query("network.verbs.rCAS") == 7
        assert reg.query("network.nics.0") == {"tx": 1}
        with pytest.raises(KeyError):
            reg.query("network.verbs.nope")

    def test_collector_reregistration_wins(self):
        reg = MetricsRegistry()
        reg.add_collector("s", lambda: 1)
        reg.add_collector("s", lambda: 2)
        assert reg.collect() == {"s": 2}
