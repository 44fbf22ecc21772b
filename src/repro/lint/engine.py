"""simlint engine: file discovery, suppression handling, rule dispatch.

The engine is deliberately execution-free — files are *parsed*, never
imported, so linting ``benchmarks/`` or a half-written module cannot run
simulations or fail on missing optional dependencies.

One mode
    Every run applies the rules to each file, then its suppressions.
    A suppression comment that matches no finding, or that names an id
    no rule has (``python -m repro.lint --list-rules``), is itself a
    finding (rule id ``unused-suppression``): the pragma of a rule that
    was deleted or went blind cannot linger.

Suppressions
    ``# simlint: ignore[rule-a,rule-b]`` on a line suppresses those
    rules' findings on that line; ``ignore[*]`` suppresses everything.
    A comment-only line applies to the next line instead, so long
    statements can carry a justification::

        # wall-clock is fine here: operator-facing progress, not sim time
        # simlint: ignore[nondet-source]
        elapsed = time.perf_counter() - start

Determinism
    Files are scanned in sorted path order and findings are globally
    sorted; two runs over the same tree produce byte-identical reports
    regardless of ``PYTHONHASHSEED`` — the same bar the rules enforce.
"""

from __future__ import annotations

import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from repro.lint.findings import ERROR, WARNING, Finding
from repro.lint.rules import Rule, default_rules
from repro.lint.source import SourceFile

#: pseudo-rules emitted by the engine itself.
PARSE_ERROR_RULE = "parse-error"
UNUSED_SUPPRESSION_RULE = "unused-suppression"

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*ignore\[([^\]]*)\]")
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hg", ".venv", "venv",
                        "node_modules", ".eggs", "build", "dist"})


@dataclass
class LintReport:
    """Outcome of one engine run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_json(self) -> dict:
        return {
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "findings": [f.to_json() for f in self.findings],
            "suppressed": len(self.suppressed),
        }


# --------------------------------------------------------------------------
# file discovery
# --------------------------------------------------------------------------

def _excluded(rel_posix: str, exclude: Sequence[str]) -> bool:
    for pattern in exclude:
        pat = pattern.rstrip("/")
        if rel_posix == pat or rel_posix.startswith(pat + "/"):
            return True
    return False


def iter_source_files(paths: Iterable[str | Path], *, root: Path,
                      exclude: Sequence[str] = ()) -> list[Path]:
    """Expand ``paths`` (files or directories) into a sorted, de-duplicated
    list of ``.py`` files, honouring ``exclude`` (root-relative POSIX
    path prefixes).  Exclusions prune the directory walk only — a file
    named explicitly is always linted (mirroring the intent of pointing
    the tool at it)."""
    out: dict[str, Path] = {}
    for raw in paths:
        p = Path(raw)
        if not p.is_absolute():
            p = root / p
        if p.is_file():
            if p.suffix == ".py":
                out[_display(p, root)] = p
            continue
        if not p.is_dir():
            continue
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in _SKIP_DIRS and not d.startswith(".")
                and not _excluded(_display(Path(dirpath) / d, root), exclude))
            for fname in sorted(filenames):
                if not fname.endswith(".py"):
                    continue
                fpath = Path(dirpath) / fname
                rel = _display(fpath, root)
                if not _excluded(rel, exclude):
                    out[rel] = fpath
    return [out[key] for key in sorted(out)]


def _display(path: Path, root: Path) -> str:
    try:
        rel = path.resolve().relative_to(root.resolve())
        return rel.as_posix()
    except ValueError:
        return path.resolve().as_posix()


# --------------------------------------------------------------------------
# suppression comments
# --------------------------------------------------------------------------

def _suppressions(source: str) -> dict[int, set[str]]:
    """Map (1-based) line number → suppressed rule ids (``"*"`` = all).

    A suppression on a comment-only line attaches to the following line.
    Only real ``COMMENT`` tokens count — a pragma *quoted in a string*
    (like the examples in this module's docstring) is documentation, not
    a suppression.
    """
    table: dict[int, set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return table  # unparseable files already surface as parse-error
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = _SUPPRESS_RE.search(tok.string)
        if not m:
            continue
        ids = {part.strip() for part in m.group(1).split(",") if part.strip()}
        if not ids:
            continue
        lineno = tok.start[0]
        target = lineno + 1 if tok.line.lstrip().startswith("#") else lineno
        table.setdefault(target, set()).update(ids)
    return table


def _apply_suppressions(
        findings: list[Finding], table: dict[int, set[str]],
) -> tuple[list[Finding], list[Finding], set[int]]:
    """Split findings into (kept, suppressed); also return the set of
    suppression line numbers that matched at least one finding."""
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    used_lines: set[int] = set()
    for f in findings:
        ids = table.get(f.line)
        if ids and ("*" in ids or f.rule in ids):
            suppressed.append(f)
            used_lines.add(f.line)
        else:
            kept.append(f)
    return kept, suppressed, used_lines


def _pragma_findings(sf: SourceFile, table: dict[int, set[str]],
                     used_lines: set[int], known: set[str]) -> Iterator[Finding]:
    """The suppressions that name no rule or match no finding."""
    for line in sorted(table):
        unknown = sorted(table[line] - known - {"*"})
        if unknown:
            message = (f"suppression names no simlint rule: "
                       f"{', '.join(unknown)} (see --list-rules)")
        elif line in used_lines:
            continue
        else:
            message = "suppression comment matches no finding; remove it"
        yield Finding(sf.display, line, 0, UNUSED_SUPPRESSION_RULE, WARNING,
                      message)


# --------------------------------------------------------------------------
# engine
# --------------------------------------------------------------------------

def _parse(path: Path, display: str,
           module: Optional[str] = None) -> SourceFile | Finding:
    """The parsed file, or the ``parse-error`` finding it becomes."""
    try:
        return SourceFile.parse(path, display=display, module=module)
    except (SyntaxError, UnicodeDecodeError) as exc:
        line = getattr(exc, "lineno", 1) or 1
        msg = getattr(exc, "msg", None) or str(exc)
        return Finding(display, line, 0, PARSE_ERROR_RULE, ERROR,
                       f"file does not parse: {msg}")


def lint_source_file(sf: SourceFile, rules: Sequence[Rule]) -> list[Finding]:
    """Raw findings for one parsed file (suppressions not yet applied),
    sorted in canonical order."""
    found: list[Finding] = []
    for rule in rules:
        found.extend(rule.check(sf))
    return sorted(found)


def lint_file(path: Path, *, rules: Optional[Sequence[Rule]] = None,
              root: Optional[Path] = None,
              module: Optional[str] = None) -> list[Finding]:
    """Lint one file, applying its suppression comments.  ``module``
    overrides dotted-name inference (used by fixture tests to place a
    file inside a scoped package)."""
    parsed = _parse(path, _display(path, root or Path.cwd()), module)
    if isinstance(parsed, Finding):
        return [parsed]
    raw = lint_source_file(parsed, default_rules() if rules is None else rules)
    kept, _suppressed, _used = _apply_suppressions(raw, _suppressions(parsed.source))
    return kept


def lint_sources(files: Sequence[SourceFile],
                 rules: Optional[Sequence[Rule]] = None) -> LintReport:
    """The one mode over already-parsed files: the rules on each, then
    its suppressions and the check of its pragmas.

    ``rules`` defaults to every shipped rule.  A subset still judges
    pragmas against the whole registry: one naming a rule left out
    matches nothing.
    """
    rules = default_rules() if rules is None else rules
    known = {r.rule_id for r in default_rules()}
    report = LintReport(files_scanned=len(files))
    for sf in files:
        table = _suppressions(sf.source)
        kept, suppressed, used_lines = _apply_suppressions(
            lint_source_file(sf, rules), table)
        report.suppressed.extend(suppressed)
        report.findings.extend(kept)
        report.findings.extend(_pragma_findings(sf, table, used_lines, known))
    report.findings.sort()
    report.suppressed.sort()
    return report


def run_lint(paths: Iterable[str | Path], *,
             root: Optional[Path] = None,
             rules: Optional[Sequence[Rule]] = None,
             exclude: Sequence[str] = (),
             ) -> LintReport:
    """Lint a tree: parse every ``.py`` file under ``paths`` (absolute or
    ``root``-relative; ``exclude`` holds root-relative POSIX prefixes to
    skip) and :func:`lint_sources` what parsed.  Findings are reported
    relative to ``root`` (default cwd); a file that does not parse is a
    ``parse-error`` finding."""
    root = (root or Path.cwd()).resolve()
    parsed: list[SourceFile] = []
    unparsed: list[Finding] = []
    for path in iter_source_files(paths, root=root, exclude=exclude):
        sf = _parse(path, _display(path, root))
        if isinstance(sf, Finding):
            unparsed.append(sf)
        else:
            parsed.append(sf)
    report = lint_sources(parsed, rules)
    report.files_scanned += len(unparsed)
    report.findings = sorted(report.findings + unparsed)
    return report
