"""Engine-level behaviour: suppressions and the pragmas that suppress
nothing, deterministic ordering, and the CLI surface."""

import json
import subprocess
import sys
from pathlib import Path

from repro.lint import default_rules, lint_file, run_lint
from repro.lint.engine import (
    PARSE_ERROR_RULE,
    UNUSED_SUPPRESSION_RULE,
    iter_source_files,
)

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
SIM_MODULE = "repro.sim.fixture"


def sim_module(tmp_path, source: str) -> Path:
    """``source`` as ``src/repro/sim/mod.py`` of a package tree, so module
    inference puts it inside the simulation packages."""
    src = tmp_path / "src" / "repro" / "sim" / "mod.py"
    src.parent.mkdir(parents=True)
    for pkg in (src.parent.parent, src.parent):
        (pkg / "__init__.py").write_text("")
    src.write_text(source)
    return src


class TestSuppressions:
    def test_inline_own_line_and_wildcard(self):
        findings = lint_file(FIXTURES / "suppressed.py", module=SIM_MODULE)
        # only the wrong-id line and the bare line survive
        assert sorted(f.line for f in findings) == [12, 13]

    def test_wrong_rule_id_does_not_suppress(self):
        findings = lint_file(FIXTURES / "suppressed.py", module=SIM_MODULE)
        assert any(f.line == 12 and f.rule == "nondet-source"
                   for f in findings)

    def test_suppressed_findings_are_reported_as_suppressed(self, tmp_path):
        src = sim_module(tmp_path, (FIXTURES / "suppressed.py").read_text())
        report = run_lint([src], root=tmp_path)
        assert sorted(f.line for f in report.suppressed) == [7, 10, 11]
        # the wrong-id pragma suppresses nothing and says so
        assert [(f.line, f.rule) for f in report.findings] == [
            (12, UNUSED_SUPPRESSION_RULE), (12, "nondet-source"),
            (13, "nondet-source")]

    def test_strict_flags_unused_suppressions(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text(
            "x = 1  # simlint: ignore[nondet-source]\n"
            "y = 2\n")
        report = run_lint([src], root=tmp_path)
        assert [f.rule for f in report.findings] == [UNUSED_SUPPRESSION_RULE]
        assert report.findings[0].line == 1
        assert "matches no finding" in report.findings[0].message

    def test_a_pragma_naming_no_rule_is_flagged(self, tmp_path):
        """Even beside a rule it does suppress: an id outside
        ``--list-rules`` (a deleted rule's, a typo) never suppresses
        anything, so it must not sit in the tree looking as if it did."""
        src = sim_module(tmp_path,
                         "import time\n"
                         "x = 1  # simlint: ignore[no-such-rule]\n"
                         "t = time.time()  "
                         "# simlint: ignore[nondet-source, gone-rule]\n")
        report = run_lint([src], root=tmp_path)
        assert [(f.line, f.rule) for f in report.findings] == [
            (2, UNUSED_SUPPRESSION_RULE), (3, UNUSED_SUPPRESSION_RULE)]
        assert "names no simlint rule: no-such-rule" in report.findings[0].message
        assert "names no simlint rule: gone-rule" in report.findings[1].message
        assert [f.rule for f in report.suppressed] == ["nondet-source"]

    def test_pragma_quoted_in_string_is_not_a_suppression(self, tmp_path):
        """Docstrings/strings *describing* the pragma must neither
        suppress findings nor show up as unused suppressions."""
        src = sim_module(tmp_path,
                         '"""Use `# simlint: ignore[nondet-source]` to '
                         'suppress."""\n'
                         "import time\n"
                         "t = time.time()\n")
        report = run_lint([src], root=tmp_path)
        assert [f.rule for f in report.findings] == ["nondet-source"]

    def test_used_suppression_not_flagged_in_strict(self, tmp_path):
        src = sim_module(tmp_path,
                         "import time\n"
                         "t = time.time()  # simlint: ignore[nondet-source]\n")
        report = run_lint([src], root=tmp_path)
        assert report.findings == []
        assert len(report.suppressed) == 1


class TestDeterminism:
    def test_repeated_runs_are_identical(self):
        a = run_lint([FIXTURES], root=REPO_ROOT)
        b = run_lint([FIXTURES], root=REPO_ROOT)
        assert a.findings == b.findings
        assert a.suppressed == b.suppressed

    def test_path_order_does_not_matter(self):
        fwd = run_lint([FIXTURES / "nondet.py", FIXTURES / "region.py"],
                       root=REPO_ROOT)
        rev = run_lint([FIXTURES / "region.py", FIXTURES / "nondet.py"],
                       root=REPO_ROOT)
        assert fwd.findings == rev.findings

    def test_file_discovery_sorted_and_deduplicated(self):
        files = iter_source_files(
            [FIXTURES.parent, FIXTURES / "region.py"], root=REPO_ROOT)
        rels = [f.relative_to(FIXTURES.parent).as_posix() for f in files]
        assert rels == sorted(rels)
        assert rels.count("fixtures/region.py") == 1  # subdirectories too


class TestParseErrors:
    def test_syntax_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n    pass\n")
        report = run_lint([bad], root=tmp_path)
        assert [f.rule for f in report.findings] == [PARSE_ERROR_RULE]
        assert not report.clean


class TestCli:
    def _run(self, *args, cwd=REPO_ROOT):
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *args],
            capture_output=True, text=True, cwd=cwd,
            env={"PYTHONPATH": str(REPO_ROOT / "src"),
                 "PYTHONHASHSEED": "random"})

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        for rule in default_rules():
            assert rule.rule_id in proc.stdout

    def test_json_output_on_fixtures(self):
        proc = self._run("tests/lint/fixtures/suppressed.py", "--json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["clean"] is False
        assert {f["rule"] for f in payload["findings"]} == {
            UNUSED_SUPPRESSION_RULE}

    def test_a_path_that_does_not_exist_is_a_usage_error(self):
        proc = self._run("srcc")
        assert proc.returncode == 2
        assert "no such path" in proc.stderr and "srcc" in proc.stderr
        assert proc.stdout == ""

    def test_a_malformed_config_is_a_usage_error(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        for table in ('[tool.simlint\npaths = ["mod.py"]\n',
                      '[tool.simlint]\npaths = "mod.py"\n'):
            (tmp_path / "pyproject.toml").write_text(table)
            proc = self._run(cwd=tmp_path)
            assert proc.returncode == 2, table
            assert "pyproject.toml" in proc.stderr

    def test_an_unknown_config_key_is_a_usage_error(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        (tmp_path / "pyproject.toml").write_text(
            '[tool.simlint]\npaths = ["mod.py"]\nbaseline = "b.json"\n')
        proc = self._run(cwd=tmp_path)
        assert proc.returncode == 2
        assert "unknown [tool.simlint] key(s) baseline" in proc.stderr
