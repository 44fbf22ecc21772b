"""Smoke-scale runs of every experiment: structure + qualitative shapes.

These are the per-artifact regression tests; the quantitative paper
factors are the experiments' strict ``check``s, which CI's ``experiments``
job runs with ``alock-experiments run all --scale small``.
"""

import pytest

from repro.common.errors import ConfigError
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.base import CONTENTION_LOCKS, ExperimentResult, SCALES


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        assert {"table1", "fig1", "fig4", "fig5", "fig6"} <= set(EXPERIMENTS)

    def test_extensions_registered(self):
        assert {"ext-related", "ext-skew", "ext-faults",
                "ext-ablations"} <= set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            run_experiment("fig9")

    def test_unknown_scale(self):
        with pytest.raises(ConfigError):
            run_experiment("fig1", scale="galactic")

    def test_contention_levels_match_paper(self):
        assert CONTENTION_LOCKS == {"high": 20, "medium": 100, "low": 1000}

    def test_scales_defined(self):
        assert set(SCALES) == {"smoke", "small", "paper"}


#: cells each spec-driven experiment hands its one fan-out at smoke
FANOUT_CELLS = {"fig1": 4, "fig4": 8, "fig5": 26, "fig6": 36,
                "ext-related": 4, "ext-skew": 9, "ext-faults": 11,
                "ext-phases": 3, "ext-ablations": 13}
#: workloads run outside a fan-out: ext-ablations' two model-off runs
#: take a NIC config, which is no ``WorkloadSpec`` axis
DIRECT_RUNS = {"ext-ablations": 2}


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_one_fanout_per_experiment(experiment_id, smoke_figure):
    """The grid is stated once: every workload an experiment simulates is
    a distinct cell of its single ``run_specs`` call."""
    smoke_figure(experiment_id)
    record = smoke_figure.fanout[experiment_id]
    cells = FANOUT_CELLS.get(experiment_id, 0)
    if cells:
        [(specs, _workers)] = record.calls
        assert len(specs) == len(set(specs)) == cells
    else:
        assert record.calls == []
    assert record.runs == cells + DIRECT_RUNS.get(experiment_id, 0)


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_every_experiment_asserts_something(experiment_id, smoke_figure):
    """``all_shapes_hold`` over zero checks is a vacuous pass."""
    assert smoke_figure(experiment_id).shape_checks


@pytest.fixture(scope="module")
def table1(smoke_figure):
    return smoke_figure("table1")


@pytest.fixture(scope="module")
def fig1(smoke_figure):
    return smoke_figure("fig1")


class TestTable1:
    def test_nine_cells(self, table1):
        assert len(table1.rows) == 9

    def test_all_cells_match_paper(self, table1):
        assert table1.all_shapes_hold
        assert all(row["match"] for row in table1.rows)

    def test_unsafe_cells_are_the_rcas_column(self, table1):
        unsafe = [(r["local_op"], r["remote_op"])
                  for r in table1.rows if r["atomic"] == "No"]
        assert sorted(unsafe) == [("RMW", "rCAS"), ("Write", "rCAS")]


class TestFig1:
    def test_shape_checks_pass(self, fig1):
        assert fig1.all_shapes_hold, fig1.shape_checks

    def test_rows_cover_thread_axis(self, fig1):
        assert [r["threads"] for r in fig1.rows] == list(SCALES["smoke"]["fig1_threads"])

    def test_markdown_render(self, fig1):
        md = fig1.to_markdown()
        assert "fig1" in md and "threads" in md and "- [x]" in md


class TestFig4Smoke:
    def test_runs_and_reports_grid(self, smoke_figure):
        result = smoke_figure("fig4")
        budgets = SCALES["smoke"]["budgets"]
        assert len(result.rows) == len(budgets) ** 2
        baseline_rows = [r for r in result.rows
                         if r["remote_budget"] == 5 and r["local_budget"] == 5]
        assert baseline_rows[0]["speedup_vs_5_5_pct"] == 0.0
        assert result.all_shapes_hold


class TestFig5Smoke:
    @pytest.fixture(scope="class")
    def fig5(self, smoke_figure):
        return smoke_figure("fig5")

    def test_all_panels_present(self, fig5):
        panels = {r["panel"] for r in fig5.rows}
        # smoke has 1 node count -> 4 panels (a-d)
        assert panels == {"a", "b", "c", "d"}

    def test_qualitative_shapes_hold(self, fig5):
        assert fig5.all_shapes_hold, fig5.shape_checks

    def test_three_locks_per_panel(self, fig5):
        locks = {r["lock"] for r in fig5.rows}
        assert locks == {"alock", "spinlock", "mcs"}

    def test_locality_sensitivity_rows_present(self, fig5):
        localities = {r["locality_pct"] for r in fig5.rows if r["lock"] == "alock"}
        assert {85.0, 95.0} <= localities


class TestFig6Smoke:
    @pytest.fixture(scope="class")
    def fig6(self, smoke_figure):
        return smoke_figure("fig6")

    def test_twelve_panels(self, fig6):
        assert {r["panel"] for r in fig6.rows} == set("abcdefghijkl")

    def test_qualitative_shapes_hold(self, fig6):
        assert fig6.all_shapes_hold, fig6.shape_checks

    def test_cdf_curves_recorded(self, fig6):
        assert set(fig6.series) == set("abcdefghijkl")
        _, curves = fig6.series["a"]
        values, probs = curves["alock"]
        assert len(values) == len(probs) > 0


class TestExperimentResult:
    def test_check_records(self):
        result = ExperimentResult("x", "t", "smoke")
        result.check("good", True)
        result.check("bad", False)
        assert not result.all_shapes_hold
        md = result.to_markdown()
        assert "- [x] good" in md and "- [ ] bad" in md

    def test_repeated_check_name_cannot_mask_a_failure(self):
        result = ExperimentResult("x", "t", "smoke")
        result.check("shape", False)
        with pytest.raises(ConfigError, match="recorded twice"):
            result.check("shape", True)
        assert not result.all_shapes_hold
