"""The committed counterexample corpus is a tier-1 regression suite.

Every entry under ``tests/schedcheck/corpus/`` is a shrunk, frozen
failure found by the exploration fleet.  Each must still *reproduce* —
strict replay lands on the recorded failure kind and execution digest,
byte for byte — and its correct twin (same scenario, seeded bug off)
must survive the same schedule, proving the entry captures the defect
and not a harness artifact.

On a reproduction failure the test renders the committed post-mortem
dump into the assertion message, so CI shows the wait-for graph and
timeline of what the entry *used to* catch.  A ``"stale"`` status means
the scenario drifted under the recording (different choice-point
count): re-find and re-shrink the entry, e.g. ::

    alock-experiments explore --preset bugs --budget 200 --seed 1 \\
        --expect-find --write-corpus --corpus-dir tests/schedcheck/corpus
"""

import json
import os

import pytest

from repro.obs.report import render_report
from repro.schedcheck.corpus import (
    check_entry,
    entry_json,
    load_corpus,
    load_dump,
)
from repro.schedcheck.fleet import SEEDED_BUGS, correct_twin
from repro.schedcheck.explore import replay

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

CORPUS = load_corpus(CORPUS_DIR)
CORPUS_IDS = [os.path.basename(path) for path, _e in CORPUS]


def _rendered_dump(entry) -> str:
    dump_text = load_dump(CORPUS_DIR, entry)
    if dump_text is None:
        return "(no committed dump)"
    return render_report(json.loads(dump_text))


class TestCorpusIsSeeded:
    def test_every_seeded_bug_has_an_entry(self):
        names = {e.name for _p, e in CORPUS}
        assert names >= {name for name, _sc, _b in SEEDED_BUGS}, (
            "the committed corpus must cover all three seeded bugs")


@pytest.mark.parametrize("path,entry", CORPUS, ids=CORPUS_IDS)
class TestCommittedCorpusReplays:
    def test_entry_reproduces_byte_identical(self, path, entry):
        status, result = check_entry(entry)
        assert status == "reproduced", (
            f"{os.path.basename(path)}: strict replay -> {status!r} "
            f"({result.summary()}).\n"
            f"What this entry used to catch:\n{_rendered_dump(entry)}")
        assert result.failure_kind == entry.failure_kind
        assert result.digest == entry.digest
        # ...and twice in a row (replay is a pure function)
        again = replay(entry.scenario, entry.decisions, strict=True)
        assert again.digest == result.digest

    def test_correct_twin_survives_the_same_schedule(self, path, entry):
        result = replay(correct_twin(entry.scenario), entry.decisions)
        assert result.ok, (
            f"{entry.name}: the bug-free twin fails the recorded "
            f"schedule too — the entry captures a harness artifact, "
            f"not the defect: {result.summary()}")

    def test_committed_bytes_are_canonical(self, path, entry):
        with open(path, encoding="utf-8") as fh:
            on_disk = fh.read()
        assert on_disk == entry_json(entry), (
            f"{os.path.basename(path)} was hand-edited: bytes differ "
            f"from the canonical serialization")
        assert entry.entry_digest() in os.path.basename(path), (
            "filename no longer matches the entry's content address")

    def test_referenced_dump_exists_and_parses(self, path, entry):
        assert entry.dump_ref, f"{entry.name}: entry has no dump_ref"
        dump_text = load_dump(CORPUS_DIR, entry)
        assert dump_text is not None, (
            f"{entry.name}: {entry.dump_ref} missing from the corpus dir")
        dump = json.loads(dump_text)
        assert dump.get("schema") == "alock-postmortem/1"
        assert dump.get("reason") == entry.failure_kind
        # the dump must render without the original process around
        assert "== post-mortem:" in render_report(dump)
