"""The CI gate: the committed tree must lint clean, exactly as
``python -m repro.lint`` runs it — and every rule the kill matrix kept
(docs/architecture.md, "Static analysis: simlint") must still see the
defect that only it catches."""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.lint import default_rules, run_lint
from repro.lint.engine import lint_sources
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
        "nondet-source", "src/repro/parallel/cache.py",
        [("        return hashlib.sha256(json.dumps(",
          '        return "%064x" % (hash(json.dumps(payload, sort_keys=True, '
          'separators=(",", ":"))) & (2**256 - 1))'),
         ('            payload, sort_keys=True, separators=(",", ":")).encode("utf-8")',
          ""),
         ("        ).hexdigest()", "")],
        None, "'hash()' depends on"),
    "U2": (
        "unordered-iter", "src/repro/parallel/sweep.py",
        [("        extra = sorted(row_keys - set(self.axes))",
          "        extra = [k for k in row_keys if k not in self.axes]")],
        None, "set order"),
    "G2": (
        "region-bypass", "src/repro/cluster/context.py",
        [("        old = self._region.faa(ptr & _ADDR_MASK, delta, self.actor)",
          "        old = self._region.peek(ptr & _ADDR_MASK); "
          "self._region._store(ptr & _ADDR_MASK, old + delta)")],
        None, "'._store()' bypasses the RaceAuditor"),
    "B1a": (
        "region-bypass", M,
        [("                yield self.poll_interval_ns",
          "                yield ctx.cluster.regions[ctx.node_id]"
          ".watch(ptr_addr(ptr))")],
        None, "raw check-then-park"),
    "PB1": (
        "process-boundary", "src/repro/parallel/store.py",
        [("import json", "import json, pickle"),
         ('                payload = json.loads(fh.read().decode("utf-8"))',
          "                data = fh.read(); payload = pickle.loads(data) "
          "if data[:1] == b'\\x80' else json.loads(data.decode('utf-8'))")],
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


@pytest.fixture(scope="module")
def gate_run():
    start = time.monotonic()
    report = run_lint(["src", "tests", "benchmarks"], root=REPO_ROOT,
                      exclude=["tests/lint/fixtures"])
    return report, time.monotonic() - start


@pytest.mark.lint
class TestRepoIsClean:
    def test_api_gate_zero_findings(self, gate_run):
        """src + tests + benchmarks lint clean, well inside CI's 30 s
        budget."""
        report, elapsed = gate_run
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.clean, f"simlint findings:\n{rendered}"
        assert report.files_scanned > 100  # the walk really covered the tree
        assert elapsed < 30, f"simlint took {elapsed:.1f}s (budget 30s)"

    def test_cli_gate_exits_zero(self):
        """The exact command documented in README/tutorial passes."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src", "tests", "benchmarks"],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"),
                 "PYTHONHASHSEED": "random"})
        assert proc.returncode == 0, proc.stdout + proc.stderr

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
