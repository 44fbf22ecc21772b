"""The CI gate: the committed tree must lint clean, exactly as
``python -m repro.lint`` runs it — and every rule the kill matrix kept
(docs/architecture.md, "Static analysis: simlint") must still see the
defect that only it catches."""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.lint import all_rules, run_lint
from repro.lint.engine import lint_sources
from repro.lint.source import SourceFile

REPO_ROOT = Path(__file__).resolve().parents[2]

A = "src/repro/locks/alock/alock.py"
M = "src/repro/locks/baselines/mcs.py"

#: Each surviving rule or sub-check beside its kill-matrix column: the
#: mutation of the shipped tree that it alone catches, as ``(file,
#: [(old line, new line), ...])`` applied at each old line's first
#: occurrence; then the stripped text of the line the finding lands on
#: (``None``: the first new line) and a fragment of its message.
KILLS = {
    "nondet-source": (
        "src/repro/parallel/cache.py",
        [("        return hashlib.sha256(json.dumps(",
          '        return "%064x" % (hash(json.dumps(payload, sort_keys=True, '
          'separators=(",", ":"))) & (2**256 - 1))'),
         ('            payload, sort_keys=True, separators=(",", ":")).encode("utf-8")',
          ""),
         ("        ).hexdigest()", "")],
        None, "'hash()' depends on"),
    "unordered-iter": (
        "src/repro/parallel/sweep.py",
        [("        extra = sorted(row_keys - set(self.axes))",
          "        extra = [k for k in row_keys if k not in self.axes]")],
        None, "set order"),
    "region-bypass": (
        "src/repro/cluster/context.py",
        [("        old = self._region.faa(ptr & _ADDR_MASK, delta, self.actor)",
          "        old = self._region.peek(ptr & _ADDR_MASK); "
          "self._region._store(ptr & _ADDR_MASK, old + delta)")],
        None, "'._store()' bypasses the RaceAuditor"),
    "process-boundary": (
        "src/repro/parallel/store.py",
        [("import json", "import json, pickle"),
         ('                payload = json.loads(fh.read().decode("utf-8"))',
          "                data = fh.read(); payload = pickle.loads(data) "
          "if data[:1] == b'\\x80' else json.loads(data.decode('utf-8'))")],
        None, "blob (de)serialization"),
    "engine-chokepoint": (
        "src/repro/sim/resources.py",
        [("from collections import deque",
          "from collections import deque; import heapq"),
         ("        start = free_at[0]",
          "        start = heapq.nsmallest(1, free_at)[0]")],
        None, "'heapq' import outside the engine chokepoint"),
    "emit-format": (
        A, [('        ctx.emit(ctx.actor, "lock.wait", self.name, "budget", "cohort", '
             'cohort.name)',
             '        ctx.emit(ctx.actor, "lock.wait", self.name, "budget", "cohort", '
             'f"{cohort.name}")')],
        None, "formatted argument in 'ctx.emit(...)'"),
    "deep-lockset acq": (
        "src/repro/locks/extensions/coherent.py",
        [("        self._holder_gid = 0", "        pass")],
        "yield from ctx.r_write(self.word_ptr, 0)",
        "unlock() can return without recording the release"),
    "deep-lockset desc": (
        M, [("            desc.in_use = False", "            pass")],
        "raise", "lock() can raise here while the descriptor is still published"),
    "deep-blocking": (
        M, [("                yield self.poll_interval_ns",
             "                yield ctx.cluster.regions[ctx.node_id]"
             ".watch(ptr_addr(ptr))")],
        None, "raw check-then-park"),
}


def rule_findings(rule_id: str, file: str, source: str) -> list:
    """What ``rule_id`` reports on ``source`` parsed in memory as
    ``file`` — same module name, suppressions applied."""
    sf = SourceFile.from_source(source, path=REPO_ROOT / file, display=file)
    rules = [r for r in all_rules() if r.rule_id == rule_id]
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
        """src + tests + benchmarks lint clean."""
        report, _elapsed = gate_run
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.clean, f"simlint findings:\n{rendered}"
        assert report.files_scanned > 100  # the walk really covered the tree

    def test_cli_gate_exits_zero(self):
        """The exact command documented in README/tutorial passes."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src", "tests", "benchmarks"],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"),
                 "PYTHONHASHSEED": "random"})
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_deep_gate_zero_findings_within_budget(self, gate_run):
        """The whole analysis — per-file rules, deep pass, unused
        pragmas — over the full tree finishes well inside the CI timing
        budget of 60 s."""
        report, elapsed = gate_run
        assert report.clean
        assert elapsed < 60, f"simlint took {elapsed:.1f}s (budget 60s)"

    def test_deep_pass_sees_the_seeded_sites(self):
        """Zero findings is also what a rule reports once it no longer
        recognises a site, so check what the deep pass *found* under
        ``src/repro/locks``: the seeded ``lost_wakeup`` park, behind its
        pragma, and nothing else."""
        report = run_lint(["src/repro/locks"], root=REPO_ROOT)
        assert report.clean
        park, = report.suppressed
        assert (park.file, park.rule) == (M, "deep-blocking")
        assert "raw check-then-park" in park.message
        lines = (REPO_ROOT / M).read_text().splitlines()
        assert lines[park.line - 1].strip().startswith("yield region.watch(")
        assert "lost_wakeup" in "".join(lines[park.line - 20:park.line])

    @pytest.mark.parametrize("row", sorted(KILLS))
    def test_each_surviving_rule_sees_its_matrix_mutation(self, row):
        """A rule the kill matrix kept is kept for one defect nothing else
        catches; a rule gone blind to it (a respelled site) fails here,
        not silently."""
        file, edits, anchor, message = KILLS[row]
        rule_id = row.split()[0]
        source = (REPO_ROOT / file).read_text()
        assert rule_findings(rule_id, file, source) == []
        lines = source.split("\n")
        for old, new in edits:
            lines[lines.index(old)] = new
        hits = [f for f in rule_findings(rule_id, file, "\n".join(lines))
                if lines[f.line - 1].strip() == (anchor or edits[0][1].strip())]
        assert any(message in f.message for f in hits), hits
