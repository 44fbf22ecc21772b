"""Fleet determinism: worker count must never change a byte.

The canonical fleet report (and every corpus entry frozen from it) is a
pure function of the :class:`FleetConfig` — sharding cells over 1, 2 or
4 processes, chunk completion order, and crashed cells must all wash
out.  ``PYTHONHASHSEED`` immunity rides on the exploration-transcript
row of ``tests/ci/test_hashseed_identity.py``, which includes a fleet
run and its report digest.
"""

import os

import pytest

from repro.schedcheck import LockScenario
from repro.schedcheck.explore import explore_random
from repro.schedcheck.fleet import (
    SEEDED_BUGS,
    FleetConfig,
    run_fleet,
    write_fleet_corpus,
)

NVC_HARD = LockScenario(lock_kind="alock", n_nodes=2, threads_per_node=2,
                        ops_per_thread=2, think_ns=200.0, stagger_ns=600.0,
                        seed=0, lock_options=(("bug", "no_victim_check"),))

CONFIG = FleetConfig(
    scenarios=tuple((name, sc) for name, sc, _b in SEEDED_BUGS),
    budget=48, seed=1)


def tree_bytes(root: str) -> dict:
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for fname in files:
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


class TestWorkerCountInvariance:
    @pytest.fixture(scope="class")
    def serial(self, tmp_path_factory):
        report = run_fleet(CONFIG, workers=0)
        corpus = str(tmp_path_factory.mktemp("corpus-serial"))
        write_fleet_corpus(report, corpus)
        return report, corpus

    @pytest.mark.parametrize("workers", [2, 4])
    def test_report_and_corpus_bytes_identical(self, serial, workers,
                                               tmp_path):
        ref_report, ref_corpus = serial
        report = run_fleet(CONFIG, workers=workers)
        assert report.to_json_bytes() == ref_report.to_json_bytes(), (
            f"workers={workers} changed the canonical fleet report")
        corpus = str(tmp_path / "corpus")
        write_fleet_corpus(report, corpus)
        assert tree_bytes(corpus) == tree_bytes(ref_corpus), (
            f"workers={workers} changed the written corpus tree")

    def test_failure_digests_match_across_worker_counts(self, serial):
        ref_report, _ = serial
        report = run_fleet(CONFIG, workers=2)
        for name in ("no_victim_check", "skip_budget_wait", "lost_wakeup"):
            a = [k["digest"] for k in ref_report.scenario(name).kept]
            b = [k["digest"] for k in report.scenario(name).kept]
            assert a == b and a, name

    def test_rerun_is_identical(self, serial):
        ref_report, _ = serial
        assert run_fleet(CONFIG).to_json_bytes() == ref_report.to_json_bytes()


class TestRandomModeParity:
    """The fleet walks exactly explore_random's schedule stream: both
    run ``explore.walk``, so they agree by construction, and this holds
    them to it."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_first_find_matches_explore_random(self, seed):
        budget = 60
        config = FleetConfig(scenarios=(("nvc", NVC_HARD),), budget=budget,
                             seed=seed, shrink=False)
        fleet_find = run_fleet(config).scenarios[0].first_find
        serial = explore_random(NVC_HARD, budget, seed=seed,
                                stop_on_failure=True).first_failure
        serial_find = None if serial is None else serial.schedule_index
        # Stopping is round-granular: the fleet may overshoot within its
        # final round but lands on the same first find.
        assert fleet_find == serial_find


class TestCrashIsolation:
    def test_crashing_scenario_does_not_sink_the_fleet(self):
        # unknown lock kind: every build in those cells raises
        broken = LockScenario(lock_kind="nosuch", n_nodes=1,
                              threads_per_node=2, ops_per_thread=2, seed=0)
        config = FleetConfig(
            scenarios=(("broken", broken), ("nvc", NVC_HARD)),
            budget=16, seed=1, shrink=False)
        report = run_fleet(config, workers=2)
        crashed = report.scenario("broken")
        assert crashed.crashed_cells > 0
        assert crashed.schedules_run == 0
        healthy = report.scenario("nvc")
        assert healthy.crashed_cells == 0
        assert healthy.schedules_run > 0

    def test_crashes_do_not_change_healthy_bytes(self):
        broken = LockScenario(lock_kind="nosuch", n_nodes=1,
                              threads_per_node=2, ops_per_thread=2, seed=0)
        with_broken = FleetConfig(
            scenarios=(("broken", broken), ("nvc", NVC_HARD)),
            budget=16, seed=1, shrink=False)
        alone = FleetConfig(scenarios=(("nvc", NVC_HARD),), budget=16,
                            seed=1, shrink=False)
        a = run_fleet(with_broken, workers=2).scenario("nvc")
        b = run_fleet(alone).scenario("nvc")
        assert a.payload() == b.payload()


class TestBudget:
    def test_a_fleet_nothing_stops_spends_exactly_its_budget(self):
        """A correct lock never stops the hunt: every budgeted schedule is
        run, none twice, over more than one round and a partial cell."""
        scenario = LockScenario(lock_kind="alock", n_nodes=2,
                                threads_per_node=2, ops_per_thread=2, seed=5)
        report = run_fleet(FleetConfig(
            scenarios=(("alock_small", scenario),), budget=70, seed=11,
            shrink=False))
        assert report.total_schedules == 70
        assert report.rounds == 2
        assert report.found == []


class TestConfigValidation:
    def test_duplicate_names_rejected(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            FleetConfig(scenarios=(("x", NVC_HARD), ("x", NVC_HARD)))
