"""Unit tests for the metrics registry."""

import pytest

from repro.obs.metrics import MetricsRegistry, _BUCKET_BOUNDS


class TestDisabled:
    def test_factories_return_shared_null(self):
        reg = MetricsRegistry(enabled=False)
        h = reg.histogram("z")
        assert h is reg.histogram("y", verb="rCAS")  # one shared no-op handle
        h.observe(100.0)
        assert reg.collect() == {}

    def test_collectors_work_while_disabled(self):
        reg = MetricsRegistry(enabled=False)
        reg.add_collector("sub", lambda: {"n": 3})
        assert reg.collect() == {"sub": {"n": 3}}


class TestPush:
    def test_handles_cached_by_name_and_labels(self):
        reg = MetricsRegistry(enabled=True)
        assert reg.histogram("ops", node=0) is reg.histogram("ops", node=0)
        assert reg.histogram("ops", node=0) is not reg.histogram("ops", node=1)

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry(enabled=True)
        assert reg.histogram("v", a=1, b=2) is reg.histogram("v", b=2, a=1)

    def test_histogram_summary(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat")
        for v in (100.0, 200.0, 300.0):
            h.observe(v)
        snap = reg.collect()["app"]["lat"]["_"]
        assert snap["count"] == 3
        assert snap["sum_ns"] == 600.0
        assert snap["mean_ns"] == 200.0
        assert snap["min_ns"] == 100.0
        assert snap["max_ns"] == 300.0
        assert sum(snap["buckets"].values()) == 3

    def test_histogram_bucket_assignment(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat")
        h.observe(64.0)    # boundary: le_64
        h.observe(65.0)    # next bucket: le_128
        h.observe(1e12)    # beyond the largest finite bound: +inf
        buckets = reg.collect()["app"]["lat"]["_"]["buckets"]
        assert buckets["le_64"] == 1
        assert buckets["le_128"] == 1
        assert buckets["+inf"] == 1

    def test_bucket_bounds_sorted(self):
        assert list(_BUCKET_BOUNDS) == sorted(_BUCKET_BOUNDS)


class TestTree:
    def make(self):
        reg = MetricsRegistry(enabled=True)
        reg.add_collector("network", lambda: {"verbs": {"rCAS": 7},
                                              "nics": [{"tx": 1}, {"tx": 2}]})
        reg.histogram("rtt", verb="rCAS").observe(3.0)
        return reg

    def test_collect_merges_collectors_and_app(self):
        tree = self.make().collect()
        assert tree["network"]["verbs"]["rCAS"] == 7
        assert tree["app"]["rtt"]["verb=rCAS"]["sum_ns"] == 3.0

    def test_flat_dotted_paths(self):
        flat = self.make().flat()
        assert flat["network.verbs.rCAS"] == 7
        assert flat["network.nics.1.tx"] == 2
        assert flat["app.rtt.verb=rCAS.count"] == 1
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
