"""Corpus mechanics: round-trips, content addressing, strict staleness.

The staleness tests pin the ``ReplayPolicy`` contract that makes a
committed corpus trustworthy: the forgiving replay behaviours (clamping
out-of-range picks, playing index 0 past the end of the recording) are
*detected* and surfaced as a distinct ``"stale"`` failure — with a
re-shrink hint — instead of silently executing a schedule the recording
never described.
"""

import dataclasses
import json
import os

import pytest

from repro.common.errors import ConfigError
from repro.faults import CrashWindow, FaultPlan
from repro.schedcheck import LockScenario, ReplayPolicy, run_schedule
from repro.schedcheck.corpus import (
    CorpusEntry,
    check_entry,
    entry_from_payload,
    entry_json,
    load_corpus,
    load_dump,
    load_entry,
    scenario_digest,
    scenario_from_payload,
    scenario_payload,
    write_entry,
)
from repro.schedcheck.decisions import SCHEDULE_VERSION
from repro.schedcheck.explore import explore_random, replay

BUG_SC = LockScenario(lock_kind="alock", n_nodes=1, threads_per_node=2,
                      ops_per_thread=4, think_ns=100.0, seed=2,
                      lock_options=(("bug", "skip_budget_wait"),))

FAULTY_SC = LockScenario(
    lock_kind="mcs", n_nodes=2, threads_per_node=2, ops_per_thread=2, seed=3,
    lock_options=(("poll_interval_ns", 200.0),),
    faults=FaultPlan(verb_loss_rate=0.05, spike_rate=0.1, spike_ns=500.0,
                     crash_windows=(CrashWindow(node=1, start_ns=100.0,
                                                end_ns=900.0),)))


def find_entry(scenario: LockScenario, name: str = "probe") -> CorpusEntry:
    """A real (unshrunk) entry from seeded exploration of ``scenario``."""
    failure = explore_random(scenario, 50, seed=1,
                             stop_on_failure=True).first_failure
    assert failure is not None
    return CorpusEntry(name=name, failure_kind=failure.failure_kind,
                       scenario=scenario,
                       decisions=failure.decisions.to_string(),
                       digest=failure.digest, detail=failure.detail)


class TestScenarioRoundTrip:
    @pytest.mark.parametrize("scenario", [BUG_SC, FAULTY_SC],
                             ids=["bug", "faults"])
    def test_payload_round_trips(self, scenario):
        assert scenario_from_payload(scenario_payload(scenario)) == scenario

    def test_payload_survives_json(self):
        blob = json.dumps(scenario_payload(FAULTY_SC), sort_keys=True)
        assert scenario_from_payload(json.loads(blob)) == FAULTY_SC

    def test_digest_tracks_content(self):
        assert scenario_digest(BUG_SC) == scenario_digest(BUG_SC)
        assert scenario_digest(BUG_SC) != scenario_digest(FAULTY_SC)
        bumped = LockScenario(**{**BUG_SC.__dict__, "seed": 3})
        assert scenario_digest(bumped) != scenario_digest(BUG_SC)


class TestEntryStore:
    def test_entry_round_trips_through_disk(self, tmp_path):
        entry = find_entry(BUG_SC)
        path = write_entry(entry, str(tmp_path), dump="{\"x\": 1}")
        loaded = load_entry(path)
        assert loaded.decisions == entry.decisions
        assert loaded.digest == entry.digest
        assert loaded.scenario == entry.scenario
        assert loaded.dump_ref is not None
        assert load_dump(str(tmp_path), loaded) == "{\"x\": 1}\n"
        # the filename embeds the content address
        assert loaded.entry_digest() in os.path.basename(path)

    def test_write_is_idempotent(self, tmp_path):
        entry = find_entry(BUG_SC)
        a = write_entry(entry, str(tmp_path))
        b = write_entry(entry, str(tmp_path))
        assert a == b
        assert [p for p, _e in load_corpus(str(tmp_path))] == [a]

    def test_provenance_outside_identity(self):
        entry = find_entry(BUG_SC)
        tagged = CorpusEntry(name=entry.name,
                             failure_kind=entry.failure_kind,
                             scenario=entry.scenario,
                             decisions=entry.decisions, digest=entry.digest,
                             detail=entry.detail,
                             provenance=(("fleet_seed", 7),))
        assert tagged.entry_digest() == entry.entry_digest()

    def test_unknown_schema_rejected(self):
        entry = find_entry(BUG_SC)
        payload = json.loads(entry_json(entry))
        payload["schema"] = "alock-corpus/999"
        with pytest.raises(ConfigError):
            entry_from_payload(payload)

    def test_missing_corpus_dir_is_empty(self, tmp_path):
        assert load_corpus(str(tmp_path / "nope")) == []


class TestReplayDrift:
    """The ReplayPolicy-level staleness signal."""

    def test_faithful_replay_has_no_drift(self):
        recorded = explore_random(BUG_SC, 50, seed=1,
                                  stop_on_failure=True).first_failure
        policy = ReplayPolicy(recorded.decisions)
        run_schedule(BUG_SC, policy)
        assert policy.drift() == []
        assert policy.clamped == []

    def test_unreached_decisions_reported(self):
        policy = ReplayPolicy({10_000: 1})
        run_schedule(BUG_SC, policy)
        problems = policy.drift()
        assert any("before recorded decision" in p for p in problems)
        assert "10000:1" in " ".join(problems)

    def test_clamped_picks_reported(self):
        policy = ReplayPolicy({0: 99})
        run_schedule(BUG_SC, policy)
        assert policy.clamped and policy.clamped[0][0] == 0
        assert any("clamped" in p for p in policy.drift())


class TestStrictReplay:
    def test_strict_flags_unreached_decisions_as_stale(self):
        result = replay(BUG_SC, {10_000: 1}, strict=True)
        assert not result.ok
        assert result.failure_kind == "stale"
        assert "stale corpus entry" in result.detail
        assert "re-find and re-shrink" in result.detail

    def test_strict_flags_clamped_picks_as_stale(self):
        result = replay(BUG_SC, {0: 99}, strict=True)
        assert result.failure_kind == "stale"

    def test_non_strict_stays_forgiving(self):
        assert replay(BUG_SC, {10_000: 1}).failure_kind != "stale"


class TestScheduleVersion:
    """A decision string indexes into one slot layout.  Recorded under
    another ``SCHEDULE_VERSION`` it may replay to the end without a
    clamped pick — so it is called stale by its version, unrun."""

    #: the ``no_victim_check`` entry as committed under version 1
    #: (217c4c4d5a338ab5): its one decision, replayed on the version-2
    #: schedule, neither ran out of choice points nor clamped — the
    #: seeded bug simply was not hit, and strict replay said "passed"
    V1_SCENARIO = LockScenario(
        lock_kind="alock", n_nodes=2, threads_per_node=2, ops_per_thread=2,
        think_ns=200.0, seed=0, lock_options=(("bug", "no_victim_check"),))
    V1_DECISIONS = "24:1"

    def v1_entry(self, **overrides):
        return CorpusEntry(**{**dict(
            name="no_victim_check", failure_kind="stall",
            scenario=self.V1_SCENARIO, decisions=self.V1_DECISIONS,
            digest="d99c70617b5262d90af9547129ca9c3a",
            schedule_version=1), **overrides})

    def test_entries_carry_the_version_in_their_schema(self):
        payload = json.loads(entry_json(find_entry(BUG_SC)))
        assert payload["schema"] == f"alock-corpus/{SCHEDULE_VERSION}"
        assert entry_from_payload(payload).schedule_version == SCHEDULE_VERSION
        assert SCHEDULE_VERSION == 3

    def test_an_entry_of_an_earlier_version_loads_and_is_stale(self):
        payload = json.loads(entry_json(self.v1_entry()))
        assert payload["schema"] == "alock-corpus/1"
        entry = entry_from_payload(payload)
        assert entry.schedule_version == 1
        status, result = check_entry(entry)
        assert status == "stale" and result.failure_kind == "stale"
        assert "recorded under schedule version 1" in result.detail
        assert "re-find and re-shrink" in result.detail
        # reported before running it: nothing was executed
        assert result.events == 0 and result.digest == ""

    #: the ``skip_budget_wait`` entry as committed under version 2
    #: (7026254b23fe0141): replayed on the version-3 schedule its one
    #: decision neither runs out of choice points nor clamps, and the
    #: run deadlocks — on another execution than the one recorded
    V2_ENTRY = CorpusEntry(
        name="skip_budget_wait", failure_kind="deadlock",
        scenario=LockScenario(
            lock_kind="alock", n_nodes=1, threads_per_node=2,
            ops_per_thread=4, think_ns=100.0, seed=2,
            lock_options=(("bug", "skip_budget_wait"),)),
        decisions="9:1", digest="86044ee0e1d632c295d5b97bb955d287",
        schedule_version=2)

    def test_an_unversioned_old_entry_is_misjudged(self):
        """Why drift detection alone is not enough: an old recording
        that replays to the end is judged as if the code had changed
        under it ("passed" for the version-1 entry above on the
        version-2 schedule, "mismatch" for this one on version 3),
        instead of being re-recorded."""
        status, result = check_entry(
            dataclasses.replace(self.V2_ENTRY, schedule_version=SCHEDULE_VERSION))
        assert status == "mismatch", result.summary()
        assert check_entry(self.V2_ENTRY)[0] == "stale"

    def test_strict_replay_takes_the_recorded_version(self):
        stale = replay(self.V1_SCENARIO, self.V1_DECISIONS, strict=True,
                       recorded_version=1)
        assert stale.failure_kind == "stale" and stale.events == 0
        # the forgiving mode replays whatever it is given
        forgiving = replay(self.V1_SCENARIO, self.V1_DECISIONS,
                           recorded_version=1)
        assert forgiving.failure_kind != "stale" and forgiving.events > 0

    def test_the_version_is_part_of_an_entrys_identity(self):
        assert self.v1_entry().entry_digest() != self.v1_entry(
            schedule_version=SCHEDULE_VERSION).entry_digest()

    @pytest.mark.parametrize("schema", [
        "alock-corpus/0", f"alock-corpus/{SCHEDULE_VERSION + 1}",
        "alock-corpus/", "alock-corpus/two", "alock-postmortem/1", None])
    def test_only_known_versions_load(self, schema):
        payload = json.loads(entry_json(self.v1_entry()))
        payload["schema"] = schema
        with pytest.raises(ConfigError):
            entry_from_payload(payload)


class TestCheckEntry:
    def test_real_entry_reproduces(self):
        entry = find_entry(BUG_SC)
        status, result = check_entry(entry)
        assert status == "reproduced"
        assert result.digest == entry.digest

    def test_stale_entry_detected(self):
        entry = find_entry(BUG_SC)
        stale = CorpusEntry(name=entry.name, failure_kind=entry.failure_kind,
                            scenario=entry.scenario, decisions="10000:1",
                            digest=entry.digest)
        status, result = check_entry(stale)
        assert status == "stale"
        assert result.failure_kind == "stale"

    def test_digest_drift_is_a_mismatch(self):
        entry = find_entry(BUG_SC)
        tampered = CorpusEntry(name=entry.name,
                               failure_kind=entry.failure_kind,
                               scenario=entry.scenario,
                               decisions=entry.decisions,
                               digest="0" * len(entry.digest))
        status, _result = check_entry(tampered)
        assert status == "mismatch"

    def test_fixed_code_passes(self):
        # same recording, bug switched off: the defect was the failure
        from repro.schedcheck.fleet import correct_twin

        entry = find_entry(BUG_SC)
        fixed = CorpusEntry(name=entry.name, failure_kind=entry.failure_kind,
                            scenario=correct_twin(entry.scenario),
                            decisions=entry.decisions, digest=entry.digest)
        status, result = check_entry(fixed)
        assert status == "passed"
        assert result.ok


class TestReplayLine:
    def test_the_replay_line_replays_the_whole_scenario(self, tmp_path,
                                                         monkeypatch, capsys):
        """The replay command a corpus entry renders must rebuild its
        scenario.  A line of ``explore`` flags once dropped six of its
        fields — lock count, picker, faults, cost model, audit mode and
        deadline — and replayed a fault-free single-lock scenario; the
        line names the entry file instead."""
        import shlex

        import repro.schedcheck.explore as explore
        from repro.experiments.cli import main
        from repro.obs.report import render_corpus_entry

        scenario = LockScenario(
            lock_kind="alock", n_nodes=2, threads_per_node=2, n_locks=3,
            ops_per_thread=2, pick="mixed", cs_ns=100.0, think_ns=50.0,
            stagger_ns=25.0, seed=4, audit="strict", deadline_ns=5e6,
            coarse_time=False, lock_options=(("local_budget", 2),),
            faults=FaultPlan(spike_rate=0.1, spike_ns=500.0))
        path = write_entry(CorpusEntry(
            name="probe", failure_kind="deadlock", scenario=scenario,
            decisions="3:1", digest="0"), str(tmp_path))
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        line, = [row for row in render_corpus_entry(payload, path).splitlines()
                 if row.startswith("replay:")]
        program, *argv = shlex.split(line.removeprefix("replay:"))
        assert program == "alock-experiments"

        replayed = []

        def recording(scenario, policy, *args, **kwargs):
            replayed.append(scenario)
            return run_schedule(scenario, policy, *args, **kwargs)

        monkeypatch.setattr(explore, "run_schedule", recording)
        main(argv)
        capsys.readouterr()
        assert [scenario_digest(sc) for sc in replayed] == \
            [payload["scenario_digest"]]


class TestReportPerfetto:
    """``python -m repro.obs.report <entry> --perfetto PATH`` writes the
    referenced dump's slice — once it rendered the entry, exited 0 and
    wrote nothing."""

    ENTRY = os.path.join(os.path.dirname(__file__), "corpus",
                         "lost_wakeup-deadlock-d60ce1da9c15185d.json")

    def test_writes_the_referenced_dumps_slice(self, tmp_path, capsys):
        from repro.obs.report import main, perfetto_json

        out = tmp_path / "slice.json"
        assert main([self.ENTRY, "--perfetto", str(out)]) == 0
        with open(self.ENTRY, encoding="utf-8") as fh:
            dump_ref = json.load(fh)["dump_ref"]
        with open(os.path.join(os.path.dirname(self.ENTRY), dump_ref),
                  encoding="utf-8") as fh:
            assert out.read_text() == perfetto_json(json.load(fh))
        assert "== corpus entry: lost_wakeup" in capsys.readouterr().out

    def test_an_entry_without_a_dump_is_a_usage_error(self, tmp_path, capsys):
        from repro.obs.report import main

        with open(self.ENTRY, encoding="utf-8") as fh:
            payload = json.load(fh)
        del payload["dump_ref"]
        entry = tmp_path / "entry.json"
        entry.write_text(json.dumps(payload))
        out = tmp_path / "slice.json"
        with pytest.raises(SystemExit) as exc:
            main([str(entry), "--perfetto", str(out)])
        assert exc.value.code == 2
        assert "no post-mortem dump" in capsys.readouterr().err
        assert not out.exists()
