"""Tests for the alock-experiments CLI."""

import hashlib
import json

import pytest

from repro.experiments.cli import main
from repro.obs import log as event_log
from tests.conftest import recorded_fanout


class TestList:
    def test_list_prints_experiment_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("table1", "fig1", "fig4", "fig5", "fig6",
                       "ext-related", "ext-skew"):
            assert exp_id in out


class TestRun:
    def test_run_single_experiment(self, capsys):
        assert main(["run", "table1", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "- [x]" in out

    def test_run_writes_markdown_report(self, tmp_path, capsys):
        report = tmp_path / "out.md"
        assert main(["run", "table1", "--scale", "smoke",
                     "--out", str(report)]) == 0
        text = report.read_text()
        assert "## table1" in text
        assert "rCAS" in text

    def test_run_unknown_experiment_raises(self, capsys):
        """...to the user, as one ``error:`` line and the usage-error
        status — not as a traceback."""
        assert main(["run", "fig99", "--scale", "smoke"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown experiment 'fig99'")
        assert captured.err.count("\n") == 1 and not captured.out

    @pytest.mark.parametrize("argv,message", [
        (["run", "table1", "--workers", "-1"], "--workers must be >= 0, got -1"),
        (["sweep", "--metric", "nope"], "unknown --metric 'nope'"),
        (["explore", "--lock-option", "novalue"],
         "--lock-option wants KEY=VALUE, got 'novalue'"),
        (["sweep", "--lock", "alock", "nosuch"], "unknown lock type 'nosuch'"),
        (["explore", "--schedules", "0"], "budget must be >= 1, got 0"),
        (["explore", "--policy", "dfs", "--max-choice-points", "-1"],
         "max_choice_points must be >= 0, got -1"),
        (["explore", "--nodes", "1", "--pick", "remote"],
         "pick 'remote' needs a remote lock, but with n_nodes=1"),
    ])
    def test_bad_option_values_are_reported_the_same(self, argv, message,
                                                     capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1 and not captured.out

    def test_every_id_is_checked_before_any_experiment_runs(self, capsys):
        assert main(["run", "table1", "fig99", "--scale", "smoke"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown experiment 'fig99'")
        assert not captured.out         # table1's report was never produced

    def test_config_errors_of_other_commands_are_reported_the_same(self, capsys):
        assert main(["explore", "--lock", "nosuch", "--schedules", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown lock type 'nosuch'")
        assert captured.err.count("\n") == 1 and not captured.out

    def test_seed_changes_are_accepted(self, capsys):
        assert main(["run", "table1", "--scale", "smoke", "--seed", "5"]) == 0


#: sha256 of the smoke-scale ``--trace-out``/``--metrics-out`` files at
#: seed 0, recorded while the export was still collected by a hook
#: inside ``run_workload`` (serial runs only): every worker count must
#: write these bytes.
EXPORT_SHA256 = {
    "fig1": ("583684f82217f0211a4d0e8de0e11c60033102a8fdfa1bea8ec382f032728fea",
             "4f592a5663ffa5805ac9b15a6eca37935dd887a62e086bdffbc095ce56b887eb"),
    "ext-phases": (
        "dba09161984ac93bc15b88e08ac9ff7a3153cd9fa91e24eab2f7052cce8fb593",
        "9b172c43c1ebb7400b84680b5e8338224d27ab66750c52e9b5e0d7fe3d9c5945"),
}


def export(tmp_path, experiment_id, workers):
    """Run one smoke experiment with both exports; return the two files."""
    trace, metrics = tmp_path / "run.trace.json", tmp_path / "run.metrics.json"
    assert main(["run", experiment_id, "--scale", "smoke", "--seed", "0",
                 "--workers", str(workers), "--trace-out", str(trace),
                 "--metrics-out", str(metrics)]) == 0
    return trace, metrics


class TestExport:
    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("experiment_id", sorted(EXPORT_SHA256))
    def test_same_bytes_at_any_worker_count(self, experiment_id, workers,
                                            tmp_path, capsys):
        with recorded_fanout() as record:
            files = export(tmp_path, experiment_id, workers)
        # the runs are fanned out as asked, pool and all
        assert [w for _specs, w in record.calls] == [workers]
        assert tuple(hashlib.sha256(f.read_bytes()).hexdigest()
                     for f in files) == EXPORT_SHA256[experiment_id]
        assert "warning:" not in capsys.readouterr().err

    def test_a_truncated_run_says_so(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(event_log, "LOG_CAPACITY", 2_000)
        trace, metrics = export(tmp_path, "fig1", 0)
        runs = json.loads(metrics.read_text())["runs"]
        dropped = {run["label"]: run["dropped_events"] for run in runs
                   if "dropped_events" in run}
        assert dropped and all(n > 0 for n in dropped.values())
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == len(dropped)
        for label, n in dropped.items():
            assert any(f"{label} outgrew its event log: the oldest {n} events"
                       in line for line in warnings)
        processes = [e["args"] for e in json.loads(trace.read_text())["traceEvents"]
                     if e["name"] == "process_name"]
        assert {p["name"]: p["dropped_events"] for p in processes
                if "dropped_events" in p} == dropped


QUICKSTART_TRACE = """\
  [      3350.0 ns] t0@n0      mcs.swap           l2 cohort=REMOTE prev=rdma_ptr(NULL)
  [      3350.0 ns] t0@n0      peterson.enter     l2 cohort=REMOTE
  [      7215.0 ns] t0@n1      mcs.swap           l2 cohort=LOCAL prev=rdma_ptr(NULL)
  [      7215.0 ns] t0@n1      peterson.enter     l2 cohort=LOCAL
  [      7710.0 ns] t0@n0      peterson.acquired  l2 cohort=REMOTE via local-unlocked after 0 spins
  [      7735.0 ns] t0@n0      cs.enter           l2
  [     17735.0 ns] t0@n0      cs.exit            l2
  [     19195.0 ns] t0@n1      peterson.acquired  l2 cohort=LOCAL via remote-unlocked
  [     19220.0 ns] t0@n1      cs.enter           l2
  [     19220.0 ns] t0@n1      cs.exit            l2
  [     19340.0 ns] t0@n1      mcs.release        l2 cohort=LOCAL tail cleared
  [     20090.0 ns] t0@n0      mcs.release        l2 cohort=REMOTE tail cleared"""


class TestExamplesRun:
    """The examples are part of the public deliverable: each fast one
    must execute cleanly end to end.  ``budget_tuning.py`` is left out:
    it has no size flags and takes about 11 s, and tier-1's wall time is
    a budget of its own."""

    @pytest.mark.parametrize("script,args", [
        ("quickstart.py", []),
        ("model_checking.py", ["--processes", "2", "--budget", "1"]),
        ("lock_table_comparison.py", ["--nodes", "2", "--threads", "2",
                                      "--locks", "8"]),
        ("atomicity_pitfalls.py", []),
    ])
    def test_example_runs(self, script, args):
        import pathlib
        import subprocess
        import sys

        path = pathlib.Path(__file__).resolve().parents[2] / "examples" / script
        result = subprocess.run([sys.executable, str(path), *args],
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert result.stdout  # printed a report
        if script == "quickstart.py":
            # the trace view of the event log, line for line (recorded
            # when the trace was still a buffer of eagerly built strings;
            # re-recorded under schedule version 3: a leader enters
            # Peterson with its swap, and the fence before unlocking
            # rides with the release, so cs.exit is stamped before it)
            block = result.stdout.split("Protocol trace:\n")[1].split("\n\n")[0]
            assert block == QUICKSTART_TRACE
