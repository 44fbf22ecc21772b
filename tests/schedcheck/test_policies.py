"""Policy tests: the default-schedule regression and policy determinism.

The FifoPolicy regression is the load-bearing guarantee of the whole
harness: installing the policy machinery with the always-default policy
must reproduce a policy-less run *bit for bit* (same trace, same stats,
same digest) — otherwise recorded decision strings would not mean
anything.
"""

import hashlib

import pytest

from repro.common.errors import ConfigError
from repro.common.rng import derive_seed
from repro.schedcheck import (
    FifoPolicy,
    LockScenario,
    PctPolicy,
    RandomWalkPolicy,
    execution_digest,
    make_policy,
    run_schedule,
)

SCENARIOS = [
    LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=2,
                 ops_per_thread=2, seed=5),
    LockScenario(lock_kind="mcs", n_nodes=1, threads_per_node=2,
                 ops_per_thread=3, seed=9),
    LockScenario(lock_kind="spinlock", n_nodes=2, threads_per_node=1,
                 ops_per_thread=2, seed=0, pick="remote"),
]


class _Kept:
    """``scenario``, keeping the last run it built readable."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.run = None

    def build(self):
        self.run = self.scenario.build()
        return self.run


class TestFifoRegression:
    @pytest.mark.parametrize("scenario", SCENARIOS,
                             ids=lambda s: s.lock_kind)
    def test_fifo_policy_reproduces_default_schedule(self, scenario):
        kept = _Kept(scenario)
        base = run_schedule(kept, None)
        fifo = run_schedule(scenario, FifoPolicy())
        assert base.ok and fifo.ok
        assert fifo.digest == base.digest
        assert fifo.events == base.events
        assert fifo.sim_time_ns == base.sim_time_ns
        # the makespan: at or after the last trace line, short of the
        # deadline the clock is moved to for the digest
        last = list(kept.run.cluster.tracer)[-1].time
        assert last <= base.sim_time_ns < kept.run.deadline_ns
        # every recorded decision is the default pick -> empty string
        assert not fifo.decisions

    def test_calibrated_cost_model_also_reproduces(self):
        """The regression holds on the real (non-coarse) cost model too."""
        sc = LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=2,
                          ops_per_thread=2, seed=5, coarse_time=False)
        assert run_schedule(sc, FifoPolicy()).digest == \
            run_schedule(sc, None).digest


class TestPolicyDeterminism:
    def test_same_seed_same_schedule(self):
        sc = SCENARIOS[0]
        a = run_schedule(sc, RandomWalkPolicy(42))
        b = run_schedule(sc, RandomWalkPolicy(42))
        assert a.digest == b.digest
        assert a.decisions == b.decisions

    def test_different_seeds_diverge(self):
        sc = SCENARIOS[0]
        digests = {run_schedule(sc, RandomWalkPolicy(s)).digest
                   for s in range(8)}
        assert len(digests) > 1

    def test_pct_same_seed_same_schedule(self):
        sc = SCENARIOS[0]
        a = run_schedule(sc, PctPolicy(7, change_points=3))
        b = run_schedule(sc, PctPolicy(7, change_points=3))
        assert a.digest == b.digest

    def test_policies_preserve_correctness_witnesses(self):
        """Reordering ties must never break a correct lock: every policy
        run completes with clean checkers (that's what makes a failure
        under exploration a real bug)."""
        sc = SCENARIOS[0]
        for seed in range(5):
            assert run_schedule(sc, RandomWalkPolicy(seed)).ok
            assert run_schedule(sc, PctPolicy(seed)).ok


class TestPctWalkGolden:
    """A PCT walk's decision strings, fan-outs, event counts and
    execution digests, hashed.  PCT keys priorities on the task an entry
    resumes, so this pins both the tie sets and
    ``PctPolicy._task_key``'s attribution of sleep entries to their
    owner (unattributed, the alock walk below visits 8 distinct
    executions instead of 3).  Schedule-derived: recorded under
    ``SCHEDULE_VERSION`` 3;
    ``python tests/schedcheck/test_policies.py`` prints the current
    values (see "Re-recording the schedule" in docs/architecture.md)."""

    GOLDEN = {
        "alock": ("5f92eb16b41580e395c7ff734cad41dd", 3),
        "mcs": ("176f7fce66ec7fd9a708b328f30310f9", 5),
        "spinlock": ("eadf8aec7a9fa141197915fd22f71361", 4),
    }

    @staticmethod
    def walk(lock_kind):
        scenario = LockScenario(lock_kind=lock_kind, n_nodes=2,
                                threads_per_node=2, n_locks=1,
                                ops_per_thread=2, seed=11)
        h = hashlib.blake2b(digest_size=16)
        executions = set()
        for i in range(8):
            r = run_schedule(scenario, PctPolicy(
                derive_seed(5, "pct-walk", i), change_points=3))
            assert r.ok, r.summary()
            executions.add(r.digest)
            h.update(repr((r.dense, r.fanouts, r.events, r.digest)).encode())
        return h.hexdigest(), len(executions)

    @pytest.mark.parametrize("lock_kind", sorted(GOLDEN))
    def test_walk_matches_parent(self, lock_kind):
        assert self.walk(lock_kind) == self.GOLDEN[lock_kind]


class TestCohortQueueGolden:
    """ALock runs no other golden reaches — budget exhaustion with
    ``pReacquire`` in both cohorts, the non-strict neighbor-write
    ablation, the seeded ``skip_budget_wait`` sampling path — under no
    policy, a random walk and PCT.  Schedule-derived, like
    :class:`TestPctWalkGolden` and re-recorded with it."""

    OPTIONS = {
        "budgets": (("local_budget", 1), ("remote_budget", 2)),
        "non-strict": (("local_budget", 1), ("remote_budget", 2),
                       ("strict_remote_rdma", False)),
        "skip_budget_wait": (("local_budget", 2), ("remote_budget", 1),
                             ("bug", "skip_budget_wait")),
    }

    GOLDEN = {
        "budgets": (
            "961325e9bad5c8d21ba03219f7d3c443",
            "ff7c343449ae6e5fcced2e879711f956",
            "2f47e75be079f2af0a6c5a9ffda395a5"),
        "non-strict": (
            "a769f6876f5ad058ca63edfde526e195",
            "9be1350c901392474818cedbf23ad875",
            "0b0c457263d82aaa5bb96f1d14430668"),
        "skip_budget_wait": (
            "aacf13a3f6b83b58162fb5ba2b5a5ff7",
            "92ba6f2d597df420d78001f7eb01909e",
            "5749824a25ab9890a26aaa7e72fced03"),
    }

    @staticmethod
    def _scenario(lock_options):
        return LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=3,
                            ops_per_thread=4, think_ns=100.0, seed=3,
                            lock_options=lock_options)

    @classmethod
    def digests(cls, case):
        out = []
        for kind in (None, "random", "pct"):
            policy = kind and make_policy(kind, 11, change_points=3,
                                          horizon=500)
            r = run_schedule(cls._scenario(cls.OPTIONS[case]), policy)
            assert r.ok, r.summary()
            out.append(r.digest)
        return tuple(out)

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_digests_match_parent(self, case):
        assert self.digests(case) == self.GOLDEN[case]

    def test_the_reacquire_path_is_under_the_golden(self):
        run = self._scenario(self.OPTIONS["budgets"]).build()
        run.cluster.env.run(until=run.deadline_ns)
        assert execution_digest(run.cluster) == self.GOLDEN["budgets"][0]
        lock = run.table.entries[0].lock
        assert lock.name == "alock[0]@n0"
        assert lock.reacquires == {"local": 11, "remote": 5}


class TestMakePolicy:
    def test_known_kinds(self):
        assert isinstance(make_policy("fifo", 0), FifoPolicy)
        assert isinstance(make_policy("random", 0), RandomWalkPolicy)
        assert isinstance(make_policy("pct", 0), PctPolicy)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_policy("chaos-monkey", 0)

    def test_pct_validates_arguments(self):
        with pytest.raises(ConfigError):
            PctPolicy(0, change_points=-1)
        with pytest.raises(ConfigError):
            PctPolicy(0, horizon=0)


class TestDigest:
    def test_digest_covers_trace_and_stats(self):
        run = SCENARIOS[0].build()
        run.cluster.env.run(until=run.deadline_ns)
        d1 = execution_digest(run.cluster)
        assert d1 == execution_digest(run.cluster)  # pure
        assert len(d1) == 32  # blake2b-128 hex


if __name__ == "__main__":  # re-record: print what the goldens should be
    for kind in sorted(TestPctWalkGolden.GOLDEN):
        print(f"{kind!r}: {TestPctWalkGolden.walk(kind)!r},")
    for name in sorted(TestCohortQueueGolden.GOLDEN):
        print(f"{name!r}: {TestCohortQueueGolden.digests(name)!r},")
