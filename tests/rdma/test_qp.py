"""Tests for the QPC cache (QP thrashing model)."""

import pytest

from repro.rdma.qp import QpcCache, qp_id


class TestQpId:
    def test_identity_tuple(self):
        assert qp_id(1, 2, 3) == (1, 2, 3)

    def test_loopback_qp(self):
        qp = qp_id(4, 0, 4)
        assert qp[0] == qp[2]


class TestQpcCache:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            QpcCache(0)

    def test_first_access_misses(self):
        cache = QpcCache(4, miss_penalty_ns=300)
        assert cache.touch(("a",)) == 300.0     # a reload
        assert cache.misses == 1
        assert cache.penalty_ns_total == 300.0

    def test_second_access_hits(self):
        cache = QpcCache(4, miss_penalty_ns=300)
        cache.touch(("a",))
        assert cache.touch(("a",)) == 0.0       # cached: no reload
        assert cache.hits == 1
        assert cache.penalty_ns_total == 300.0

    def test_lru_eviction(self):
        cache = QpcCache(2)
        cache.touch(("a",))
        cache.touch(("b",))
        cache.touch(("c",))  # evicts a
        assert ("a",) not in cache
        assert ("b",) in cache
        assert cache.evictions == 1

    def test_access_refreshes_recency(self):
        cache = QpcCache(2)
        cache.touch(("a",))
        cache.touch(("b",))
        cache.touch(("a",))  # refresh a
        cache.touch(("c",))  # evicts b, not a
        assert ("a",) in cache
        assert ("b",) not in cache

    def test_thrashing_working_set_larger_than_cache(self):
        """With a working set > capacity cycled round-robin, every access
        misses — the QP-thrashing regime from the paper's §2."""
        cache = QpcCache(8)
        qps = [(i,) for i in range(16)]
        for _ in range(4):
            for qp in qps:
                cache.touch(qp)
        assert cache.hits == 0
        assert cache.miss_rate == 1.0

    def test_working_set_fits_all_hits_after_warmup(self):
        cache = QpcCache(16)
        qps = [(i,) for i in range(8)]
        for qp in qps:
            cache.touch(qp)
        cache.reset_stats()
        for _ in range(4):
            for qp in qps:
                cache.touch(qp)
        assert cache.miss_rate == 0.0

    def test_len(self):
        cache = QpcCache(4)
        for i in range(6):
            cache.touch((i,))
        assert len(cache) == 4
