"""The CI gate: the committed tree must lint clean against the committed
baseline, exactly as ``python -m repro.lint`` runs it."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import Baseline, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.lint
class TestRepoIsClean:
    def test_api_gate_zero_findings(self):
        """src + tests + benchmarks lint clean with the committed baseline."""
        baseline = Baseline.load(REPO_ROOT / "simlint-baseline.json")
        report = run_lint(
            ["src", "tests", "benchmarks"], root=REPO_ROOT,
            baseline=baseline, exclude=["tests/lint/fixtures"])
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

    def test_deep_gate_zero_findings_within_budget(self):
        """The full tree passes the deep pass (lockset, protocol,
        blocking) well inside the CI timing budget of 60 s — strictly,
        as CI runs it: no pragma may sit unused (strict ignores the
        baseline, which the last test pins empty)."""
        import time
        start = time.monotonic()
        report = run_lint(
            ["src", "tests", "benchmarks"], root=REPO_ROOT,
            exclude=["tests/lint/fixtures"], deep=True, strict=True)
        elapsed = time.monotonic() - start
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.clean, f"deep findings:\n{rendered}"
        assert elapsed < 60, f"deep pass took {elapsed:.1f}s (budget 60s)"

    def test_deep_pass_sees_the_seeded_sites(self):
        """Zero findings is also what a rule reports once it no longer
        recognises a site (a relinquish CAS spelled so ``deep-protocol``
        misses it left every other gate green), so check what the deep
        pass *found* under ``src/repro/locks``: the two seeded defects,
        each behind its pragma, and nothing else."""
        report = run_lint(["src/repro/locks"], root=REPO_ROOT, deep=True)
        assert report.clean
        assert [f.rule for f in report.suppressed] == [
            "deep-protocol", "deep-blocking"], \
            [f.render() for f in report.suppressed]
        handoff, park = report.suppressed

        assert handoff.file == "src/repro/locks/alock/alock.py"
        assert "handover left undischarged" in handoff.message
        lines = (REPO_ROOT / handoff.file).read_text().splitlines()
        assert lines[handoff.line - 1].strip() == "return"
        assert '"handoff abandoned"' in "".join(
            lines[handoff.line - 5:handoff.line])

        assert park.file == "src/repro/locks/baselines/mcs.py"
        assert "raw check-then-park" in park.message
        buggy_wait, = [
            node for node in ast.walk(ast.parse(
                (REPO_ROOT / park.file).read_text()))
            if isinstance(node, ast.FunctionDef) and node.name == "_buggy_wait"]
        assert buggy_wait.lineno <= park.line <= buggy_wait.end_lineno

    def test_committed_baseline_parses_and_is_empty(self):
        """Nothing is grandfathered right now; new findings must be fixed
        or explicitly suppressed, not silently absorbed."""
        baseline = Baseline.load(REPO_ROOT / "simlint-baseline.json")
        assert len(baseline) == 0
