"""The CI gate: the committed tree must lint clean, exactly as
``python -m repro.lint`` runs it — and every rule the kill matrix kept
(docs/architecture.md, "Static analysis: simlint") must still see the
defect that only it catches."""

from pathlib import Path

import pytest

from repro.lint import default_rules, run_lint
from repro.lint.engine import lint_sources
from repro.lint.findings import Finding
from repro.lint.source import SourceFile

REPO_ROOT = Path(__file__).resolve().parents[2]

A = "src/repro/locks/alock/alock.py"
M = "src/repro/locks/baselines/mcs.py"

#: The kill-matrix columns that a simlint rule alone fails, each
#: beside that rule: the mutation of the shipped tree, as ``(file,
#: [(old line, new line), ...])`` applied at each old line's first
#: occurrence; then the stripped text of the line the finding lands on
#: (``None``: the first new line) and a fragment of its message.
KILLS = {
    "N1": (
        "nondet-source", "src/repro/obs/postmortem.py",
        [('    digest = hashlib.blake2b(dump_str.encode("utf-8"), '
          'digest_size=8).hexdigest()',
          '    digest = "%016x" % (hash(dump_str) & (2**64 - 1))')],
        None, "'hash()' depends on"),
    "U2": (
        "unordered-iter", "src/repro/obs/export.py",
        [("        actors = sorted({s.actor for s in run.spans})",
          "        actors = list({s.actor for s in run.spans})")],
        None, "set order"),
    "G2": (
        "region-bypass", "src/repro/cluster/context.py",
        [("        old = self._region.faa(ptr & _ADDR_MASK, delta, self.actor)",
          "        old = self._region.peek(ptr & _ADDR_MASK); "
          "self._region._store(ptr & _ADDR_MASK, old + delta)")],
        None, "'._store()' bypasses the access sink"),
    "B1a": (
        "region-bypass", M,
        [("                yield self.poll_interval_ns",
          "                yield ctx.cluster.regions[ctx.node_id]"
          ".watch(ptr_addr(ptr))")],
        None, "raw check-then-park"),
    "PB1": (
        "process-boundary", "src/repro/schedcheck/corpus.py",
        [("import json", "import json, pickle"),
         ("        return entry_from_payload(json.load(fh))",
          "        data = fh.buffer.read(); return entry_from_payload("
          "pickle.loads(data) if data[:1] == b'\\x80' else json.loads(data))")],
        None, "blob (de)serialization"),
    "E1": (
        "engine-chokepoint", "src/repro/sim/resources.py",
        [("from collections import deque",
          "from collections import deque; import heapq"),
         ("        start = free_at[0]",
          "        start = heapq.nsmallest(1, free_at)[0]")],
        None, "'heapq' import outside the engine chokepoint"),
    "EF3": (
        "emit-format", A,
        [('                ctx.emit(ctx.actor, "lock.wait", self.name, "next", "cohort", '
          'cohort.name)',
          '                ctx.emit(ctx.actor, "lock.wait", self.name, "next", "cohort", '
          'f"{cohort.name}")')],
        None, "formatted argument in 'ctx.emit(...)'"),
}


def rule_findings(rule_id: str, file: str, source: str) -> list:
    """What ``rule_id`` reports on ``source`` parsed in memory as
    ``file`` — same module name, suppressions applied."""
    sf = SourceFile.from_source(source, path=REPO_ROOT / file, display=file)
    rules = [r for r in default_rules() if r.rule_id == rule_id]
    return [f for f in lint_sources([sf], rules).findings if f.rule == rule_id]


@pytest.mark.lint
class TestRepoIsClean:
    def test_api_gate_zero_findings(self, simlint_tree):
        """src + tests + benchmarks lint clean, well inside CI's 30 s
        budget."""
        report = simlint_tree.report
        rendered = "\n".join(Finding(**f).render() for f in report["findings"])
        assert report["clean"], f"simlint findings:\n{rendered}"
        assert report["files_scanned"] > 100  # the walk really covered the tree
        assert simlint_tree.elapsed < 30, (
            f"simlint took {simlint_tree.elapsed:.1f}s (budget 30s)")

    def test_cli_gate_exits_zero(self, simlint_tree):
        """The exact command documented in README/tutorial passes."""
        assert simlint_tree.returncode == 0, simlint_tree.stderr

    def test_region_bypass_sees_the_seeded_park(self):
        """Zero findings is also what a rule reports once it no longer
        recognises a site, so check what simlint *found* under
        ``src/repro/locks``: the seeded ``lost_wakeup`` park, behind its
        pragma, and nothing else."""
        report = run_lint(["src/repro/locks"], root=REPO_ROOT)
        assert report.clean
        park, = report.suppressed
        assert (park.file, park.rule) == (M, "region-bypass")
        assert "raw check-then-park" in park.message
        lines = (REPO_ROOT / M).read_text().splitlines()
        assert lines[park.line - 1].strip().startswith("yield region.watch(")
        assert "lost_wakeup" in "".join(lines[park.line - 20:park.line])

    @pytest.mark.parametrize("column", sorted(KILLS),
                             ids=[f"{KILLS[c][0]}/{c}" for c in sorted(KILLS)])
    def test_each_surviving_rule_sees_its_matrix_mutation(self, column):
        """A rule the kill matrix kept is kept for a defect nothing else
        catches; a rule gone blind to it (a respelled site) fails here,
        not silently."""
        rule_id, file, edits, anchor, message = KILLS[column]
        source = (REPO_ROOT / file).read_text()
        assert rule_findings(rule_id, file, source) == []
        lines = source.split("\n")
        for old, new in edits:
            lines[lines.index(old)] = new
        hits = [f for f in rule_findings(rule_id, file, "\n".join(lines))
                if lines[f.line - 1].strip() == (anchor or edits[0][1].strip())]
        assert any(message in f.message for f in hits), hits
