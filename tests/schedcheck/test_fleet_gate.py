"""The bounded CI fleet gate: a real fleet must re-find the seeded bugs.

This is the end-to-end smoke of the whole loop — parallel cells over
the process pool, merging in cell order, shrinking, corpus freezing — at a
budget small enough for every CI run (2 workers, well under a minute)
but large enough that all three seeded defects fall out
deterministically.  The CI workflow runs this file in the schedcheck
tier with ``ALOCK_POSTMORTEM_DIR`` set and uploads the written corpus
and dumps as artifacts when it fails.
"""

from repro.schedcheck.corpus import check_entry
from repro.schedcheck.fleet import (
    SEEDED_BUGS,
    FleetConfig,
    run_fleet,
    write_fleet_corpus,
)

GATE_CONFIG = FleetConfig(
    scenarios=tuple((name, sc) for name, sc, _b in SEEDED_BUGS),
    budget=200, seed=1)

BUG_NAMES = [name for name, _sc, _b in SEEDED_BUGS]


class TestFleetGate:
    def test_fleet_refinds_shrinks_and_freezes_every_seeded_bug(
            self, tmp_path):
        report = run_fleet(GATE_CONFIG, workers=2)
        assert report.elapsed_s < 60, (
            f"fleet gate exceeded its CI time box ({report.elapsed_s:.0f}s)")
        found = {s.name for s in report.found}
        assert found == set(BUG_NAMES), (
            f"fleet missed {set(BUG_NAMES) - found} within "
            f"{GATE_CONFIG.budget} schedules: {report.summary()}")
        for s in report.scenarios:
            assert s.shrink is not None, s.name
            assert s.shrink["size"] <= 25, (s.name, s.shrink)
            assert s.entry is not None, s.name
            assert s.entry_dump is not None, s.name
            # the frozen entry reproduces immediately, pre-commit
            status, result = check_entry(s.entry)
            assert status == "reproduced", (s.name, status, result.summary())
        paths = write_fleet_corpus(report, str(tmp_path))
        assert len(paths) == len(BUG_NAMES)

    def test_gate_reports_meaningful_rates(self):
        report = run_fleet(FleetConfig(
            scenarios=(("nvc", SEEDED_BUGS[0][1]),), budget=16, seed=1,
            shrink=False))
        assert report.total_schedules > 0
        assert report.schedules_per_sec > 0
        s = report.scenarios[0]
        assert 1 <= s.distinct_executions <= s.schedules_run
