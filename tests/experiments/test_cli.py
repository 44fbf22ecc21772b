"""Tests for the alock-experiments CLI."""

import hashlib
import json
import pathlib
import re

import pytest

from repro.common.errors import ConfigError
from repro.experiments import registry
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
        (["run", "table1", "--seed", "1", "1"],
         "--seed names a seed twice: [1, 1]"),
        (["explore", "--lock-option", "novalue"],
         "--lock-option wants KEY=VALUE, got 'novalue'"),
        (["explore", "--lock", "nosuch"], "unknown lock type 'nosuch'"),
        (["explore", "--budget", "0"], "budget must be >= 1, got 0"),
        (["explore", "--preset", "bugs", "--lock", "mcs"],
         "--preset explores its own scenarios"),
        (["explore", "--nodes", "1", "--pick", "remote"],
         "pick 'remote' needs a remote lock, but with n_nodes=1"),
        (["explore", "--think-ns", "-1"], "think_ns must be >= 0, got -1.0"),
        (["explore", "--cs-ns", "-100000"],
         "cs_ns must be >= 0, got -100000.0"),
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
        assert main(["explore", "--lock", "nosuch", "--budget", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown lock type 'nosuch'")
        assert captured.err.count("\n") == 1 and not captured.out

    def test_seed_changes_are_accepted(self, capsys):
        assert main(["run", "table1", "--scale", "smoke", "--seed", "5"]) == 0


#: the committed corpus: one frozen find per seeded bug
CORPUS = pathlib.Path(__file__).resolve().parents[1] / "schedcheck" / "corpus"
#: explore's flag-built scenario: the seeded MCS lost wakeup (§10 of the
#: tutorial), which the walk at seed 1 finds at schedule 7
LOST_WAKEUP = ["--lock", "mcs", "--nodes", "1", "--threads", "2", "--ops",
               "3", "--cs-ns", "100", "--lock-option", "bug=lost_wakeup",
               "--lock-option", "poll_interval_ns=200", "--seed", "1"]


class TestExplore:
    """``explore`` is the one exploration command: one scenario from
    flags, or a preset, always through ``run_fleet``; ``replay`` runs a
    frozen find from its corpus entry."""

    def test_a_flag_built_find_is_frozen_and_replays(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["explore", *LOST_WAKEUP, "--write-corpus",
                     "--corpus-dir", str(corpus)]) == 1
        out = capsys.readouterr().out
        assert "first deadlock at schedule 7, shrunk 6 -> 1 decisions: 6:1" \
            in out, out
        entry, = corpus.glob("*.json")
        assert entry.name.startswith("mcs-") and f"corpus: {entry}" in out
        assert main(["replay", str(entry)]) == 0
        assert capsys.readouterr().out.startswith(
            "reproduced: deadlock: 2/2 clients parked")

    def test_the_flag_built_scenario_has_a_name_derived_from_its_flags(
            self, monkeypatch, capsys):
        from repro.schedcheck import fleet

        names = []

        def spy(config, **kwargs):
            names.append(config.scenarios[0][0])
            raise ConfigError("stop")

        monkeypatch.setattr(fleet, "run_fleet", spy)
        for argv in (LOST_WAKEUP, LOST_WAKEUP, LOST_WAKEUP[:-2]):
            assert main(["explore", *argv]) == 2
        assert names[0] == names[1] == names[2]      # --seed is the walk's
        assert main(["explore", *LOST_WAKEUP, "--scenario-seed", "1"]) == 2
        assert names[3] != names[0]
        capsys.readouterr()

    def test_crashed_cells_are_no_pass(self, monkeypatch, capsys):
        """The walk never ran: exploring nothing must not exit 0."""
        from repro.schedcheck import fleet

        def crash(*args):
            raise RuntimeError("planted")

        monkeypatch.setattr(fleet, "walk", crash)
        assert main(["explore", "--budget", "1"]) == 1
        captured = capsys.readouterr()
        assert "1 crashed cell(s)" in captured.out
        assert captured.err.startswith("cells crashed in: alock-")

    @pytest.fixture(scope="class")
    def bugs_report(self):
        from repro.schedcheck.fleet import SEEDED_BUGS, FleetConfig, run_fleet

        return run_fleet(FleetConfig(
            scenarios=tuple((name, sc) for name, sc, _b in SEEDED_BUGS),
            budget=48, seed=1)).to_json_bytes()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_a_preset_report_is_run_fleets(self, bugs_report, workers,
                                           tmp_path, monkeypatch, capsys):
        from repro.schedcheck import fleet

        run_fleet, fanned = fleet.run_fleet, []

        def recording(config, *, workers, **kwargs):
            fanned.append(workers)
            return run_fleet(config, workers=workers, **kwargs)

        monkeypatch.setattr(fleet, "run_fleet", recording)
        report = tmp_path / "report.json"
        assert main(["explore", "--preset", "bugs", "--budget", "48",
                     "--seed", "1", "--workers", str(workers),
                     "--report", str(report)]) == 1
        assert fanned == [workers]
        assert report.read_bytes() == bugs_report
        capsys.readouterr()

    @pytest.mark.parametrize("entry", sorted(p.name for p in CORPUS.glob("*.json")))
    def test_every_committed_entry_replays(self, entry, capsys):
        assert main(["replay", str(CORPUS / entry)]) == 0
        assert capsys.readouterr().out.startswith("reproduced: ")

    def test_an_unreadable_entry_is_bad_config(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "nosuch.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot load corpus entry")
        assert captured.err.count("\n") == 1 and not captured.out

    @pytest.mark.parametrize("argv", [
        ["fleet"], ["fleet", "--preset", "bugs"],
        ["explore", "--schedules", "5"], ["explore", "--shrink"],
        ["explore", "--keep-going"], ["explore", "--change-points", "3"],
        ["explore", "--max-choice-points", "3"],
        ["explore", "--policy", "dfs"], ["explore", "--replay", "6:1"],
        ["explore", "--locks", "2"], ["replay"],
    ])
    def test_deleted_commands_and_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


#: the host-time progress line each run prints after its report
TIMING = re.compile(r"^\(\S+ finished in \d+\.\ds\)$")


def untimed(text: str) -> str:
    return "\n".join(line for line in text.split("\n")
                     if not TIMING.match(line))


class TestSeedList:
    def test_one_report_per_seed_under_its_seed_line(self, tmp_path, capsys):
        """Two seeds print the two single-seed reports, each under one
        line naming its seed, and ``--out`` holds both."""
        out_md = tmp_path / "out.md"
        assert main(["run", "table1", "--scale", "smoke", "--seed", "0", "1",
                     "--out", str(out_md)]) == 0
        both = capsys.readouterr().out
        singles = []
        for seed in ("0", "1"):
            assert main(["run", "table1", "--scale", "smoke",
                         "--seed", seed]) == 0
            singles.append(capsys.readouterr().out)
        assert "# seed" not in singles[0]
        assert untimed(both) == untimed("".join(
            f"# seed {seed}\n\n{single}" for seed, single in enumerate(singles)))
        text = out_md.read_text()
        assert text.count("## table1:") == 2
        assert text.index("# seed 0\n\n## table1:") < \
            text.index("# seed 1\n\n## table1:")

    def test_same_output_at_any_worker_count(self, capsys):
        outputs = []
        for workers in ("0", "2"):
            with recorded_fanout() as record:
                assert main(["run", "fig1", "--scale", "smoke", "--seed", "0",
                             "1", "--workers", workers]) == 0
            assert record.calls and \
                {w for _specs, w in record.calls} == {int(workers)}
            outputs.append(untimed(capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[0].count("## fig1:") == 2

    def test_a_check_failing_at_one_seed_names_it(self, capsys, monkeypatch):
        table1 = registry.EXPERIMENTS["table1"]

        def failing_at_seed_1(*, scale, seed, workers):
            result = table1(scale=scale, seed=seed, workers=workers)
            result.check("planted failure", seed != 1)
            return result

        monkeypatch.setitem(registry.EXPERIMENTS, "table1", failing_at_seed_1)
        assert main(["run", "table1", "--scale", "smoke", "--seed", "0",
                     "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "shape checks FAILED for: table1@seed1\n"
        assert captured.out.count("- [x] planted failure") == 1
        assert captured.out.count("- [ ] planted failure") == 1


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


class TestClosedStdout:
    """A reader that closes stdout early (``alock-experiments ... | head``)
    ends the run quietly with ``EXIT_BROKEN_PIPE``, on every subcommand:
    ``main`` handles it once."""

    @pytest.mark.parametrize("argv", [
        ["list"],
        ["run", "table1", "--scale", "smoke", "--seed", "0", "1"],
    ], ids=["list", "run"])
    def test_no_traceback_when_the_reader_goes_away(self, argv):
        import os
        import pathlib
        import subprocess
        import sys

        from repro.experiments.cli import EXIT_BROKEN_PIPE

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child writes a byte
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.experiments.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert proc.stderr == ""
        assert proc.returncode == EXIT_BROKEN_PIPE


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
