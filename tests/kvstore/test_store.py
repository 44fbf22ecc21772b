"""Tests for the sharded KV store."""

import pytest

from repro.cluster import Cluster
from repro.common.errors import ConfigError
from repro.kvstore import KVConfig, ShardedKVStore


@pytest.fixture()
def cluster():
    return Cluster(3, seed=31, audit="record")


@pytest.fixture()
def store(cluster):
    return ShardedKVStore(cluster, KVConfig(n_buckets=12))


def drive(cluster, *gens):
    procs = [cluster.env.process(g) for g in gens]
    cluster.run()
    for p in procs:
        assert p.ok, p.value
    return procs


class TestConfig:
    def test_bucket_validation(self):
        with pytest.raises(ConfigError):
            KVConfig(n_buckets=0)

    def test_buckets_at_least_nodes(self, cluster):
        with pytest.raises(ConfigError):
            ShardedKVStore(cluster, KVConfig(n_buckets=2))

    def test_striping(self, store):
        homes = [b.home_node for b in store.buckets]
        assert homes == [i % 3 for i in range(12)]

    def test_hash_stable_and_in_range(self, store):
        for key in range(200):
            b = store.bucket_of(key)
            assert 0 <= b < 12
            assert store.bucket_of(key) == b

    def test_local_keys_helper(self, store):
        keys = store.local_keys(1, count=5)
        assert len(keys) == 5
        assert all(store.home_of(k) == 1 for k in keys)


class TestSingleKeyOps:
    def test_put_then_get_local(self, cluster, store):
        ctx = cluster.thread_ctx(0, 0)
        key = store.local_keys(0, 1)[0]

        def proc():
            version = yield from store.put(ctx, key, 42)
            value, seen_version = yield from store.get(ctx, key)
            return version, value, seen_version

        [p] = drive(cluster, proc())
        version, value, seen_version = p.value
        assert value == 42
        assert seen_version == version == 2  # seqlock: +2 per write

    def test_put_then_get_remote(self, cluster, store):
        ctx = cluster.thread_ctx(0, 0)
        key = store.local_keys(2, 1)[0]  # homed on another node

        def proc():
            yield from store.put(ctx, key, -7)
            return (yield from store.get(ctx, key))

        [p] = drive(cluster, proc())
        assert p.value[0] == -7

    def test_version_increments_per_write(self, cluster, store):
        ctx = cluster.thread_ctx(0, 0)
        key = store.local_keys(0, 1)[0]

        def proc():
            for i in range(5):
                yield from store.put(ctx, key, i)
            _, version = yield from store.get(ctx, key)
            return version

        [p] = drive(cluster, proc())
        assert p.value == 10  # seqlock: versions advance by 2 per write

    def test_add(self, cluster, store):
        ctx = cluster.thread_ctx(1, 0)
        key = store.local_keys(1, 1)[0]

        def proc():
            yield from store.put(ctx, key, 10)
            new = yield from store.add(ctx, key, -4)
            return new

        [p] = drive(cluster, proc())
        assert p.value == 6
        assert store.peek_value(key) == 6

    def test_audit_clean_after_ops(self, cluster, store):
        ctx = cluster.thread_ctx(0, 0)

        def proc():
            for key in range(10):
                yield from store.put(ctx, key, key * 11)

        drive(cluster, proc())
        assert store.audit() == []
        cluster.auditor.assert_clean()


class TestConcurrentClients:
    def test_concurrent_adds_conserve_sum(self, cluster, store):
        """Many clients doing += on shared keys: the final sum must equal
        the number of increments — the KV-level lost-update witness."""
        keys = [store.local_keys(n, 2)[i] for n in range(3) for i in range(2)]

        def client(node, tid, n_ops):
            ctx = cluster.thread_ctx(node, tid)
            for i in range(n_ops):
                key = keys[(node + tid + i) % len(keys)]
                yield from store.add(ctx, key, 1)

        drive(cluster, *(client(n, t, 20) for n in range(3) for t in range(2)))
        assert store.total_value() == 6 * 20
        assert store.audit() == []
        cluster.auditor.assert_clean()

    def test_mixed_readers_and_writers_never_tear(self, cluster, store):
        """get() checks the checksum equation at read time: concurrent
        multi-word writes must never be observed half-done."""
        key = store.local_keys(0, 1)[0]

        def writer(tid):
            ctx = cluster.thread_ctx(0, tid)
            for i in range(30):
                yield from store.put(ctx, key, i * 1000 + tid)

        def reader(node):
            ctx = cluster.thread_ctx(node, 3)
            for _ in range(30):
                yield from store.get(ctx, key)  # raises on a torn read

        drive(cluster, writer(0), writer(1), reader(1), reader(2))
        assert store.audit() == []


class TestTransfers:
    def test_transfer_moves_value(self, cluster, store):
        ctx = cluster.thread_ctx(0, 0)
        a = store.local_keys(0, 1)[0]
        b = store.local_keys(1, 1)[0]

        def proc():
            yield from store.put(ctx, a, 100)
            yield from store.put(ctx, b, 0)
            yield from store.transfer(ctx, a, b, 30)

        drive(cluster, proc())
        assert store.peek_value(a) == 70
        assert store.peek_value(b) == 30

    def test_concurrent_transfers_conserve_total(self, cluster, store):
        """The bank-transfer stress: opposing transfer streams over the
        same keys, with lock-ordering preventing deadlock and the total
        conserved exactly."""
        keys = [store.local_keys(n, 1)[0] for n in range(3)]

        def seed_money():
            ctx = cluster.thread_ctx(0, 0)
            for key in keys:
                yield from store.put(ctx, key, 1000)

        drive(cluster, seed_money())
        initial = store.total_value()

        def mover(node, tid, direction):
            ctx = cluster.thread_ctx(node, tid)
            for i in range(15):
                src = keys[(i + direction) % 3]
                dst = keys[(i + direction + 1) % 3]
                yield from store.transfer(ctx, src, dst, 5)

        drive(cluster, mover(0, 1, 0), mover(1, 1, 1), mover(2, 1, 2),
              mover(0, 2, 1))
        assert store.total_value() == initial
        assert store.transfers == 4 * 15
        assert store.audit() == []
        cluster.auditor.assert_clean()

    def test_same_bucket_transfer_noop_on_sum(self, cluster, store):
        ctx = cluster.thread_ctx(0, 0)
        key = store.local_keys(0, 1)[0]
        # find another key in the same bucket
        twin = next(k for k in range(1000, 5000)
                    if store.bucket_of(k) == store.bucket_of(key))

        def proc():
            yield from store.put(ctx, key, 50)
            yield from store.transfer(ctx, key, twin, 10)

        drive(cluster, proc())
        assert store.peek_value(key) == 50
        assert store.transfers == 1


class TestLockKinds:
    @pytest.mark.parametrize("kind", ["alock", "spinlock", "mcs", "rpc"])
    def test_store_works_over_any_single_key_lock(self, kind):
        cluster = Cluster(2, seed=2, audit="record")
        store = ShardedKVStore(cluster, KVConfig(n_buckets=8, lock_kind=kind))

        def client(node):
            ctx = cluster.thread_ctx(node, 0)
            for i in range(10):
                yield from store.add(ctx, i, 1)

        drive(cluster, client(0), client(1))
        assert store.total_value() == 20
        assert store.audit() == []
        cluster.auditor.assert_clean()

    def test_alock_buys_application_throughput_at_90pct_locality(self):
        """The end-to-end payoff (EXPERIMENTS.md, "KV store"): a
        read-heavy store workload at 90% locality runs ~1.4x faster over
        ALock than over the spinlock and ~2x faster than over MCS — far
        less than the lock-primitive gap, because a remote client's
        critical section holds the bucket across remote data ops."""
        def ops_per_ns(kind):
            cluster = Cluster(3, seed=8, audit="off")
            store = ShardedKVStore(cluster, KVConfig(n_buckets=30,
                                                     lock_kind=kind))

            def client(node, tid):
                ctx = cluster.thread_ctx(node, tid)
                rng = cluster.rng.get("bench-kv", node, tid)
                for i in range(60):
                    home = node
                    if rng.random() >= 0.9:
                        home = (node + 1 + int(rng.integers(0, 2))) % 3
                    key = store.local_keys(home, 4)[i % 4]
                    if rng.random() < 0.75:     # read-heavy, as KV serving is
                        yield from store.get(ctx, key)
                    else:
                        yield from store.add(ctx, key, 1)

            drive(cluster, *(client(n, t) for n in range(3) for t in range(4)))
            assert store.total_value() == store.puts and store.audit() == []
            return 3 * 4 * 60 / cluster.env.now

        alock = ops_per_ns("alock")
        assert alock > 1.25 * ops_per_ns("spinlock")
        assert alock > 1.8 * ops_per_ns("mcs")
