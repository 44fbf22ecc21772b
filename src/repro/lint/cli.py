"""``python -m repro.lint`` — the simlint command line.

One mode: every run applies the rules and the unused-suppression check
(see :mod:`repro.lint.engine`).  Exit status: 0 when the tree is clean,
1 when findings remain, 2 on a usage error — a bad argument, a path
that does not exist, or a ``[tool.simlint]`` table that does not parse
or carries a key simlint does not know.

Configuration is read from ``[tool.simlint]`` in the nearest
``pyproject.toml`` at or above ``--root`` (default: the current
directory); paths given on the command line replace ``paths``.  The
keys::

    [tool.simlint]
    paths = ["src", "tests", "benchmarks"]
    exclude = ["tests/lint/fixtures"]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.lint.engine import run_lint
from repro.lint.rules import default_rules

if sys.version_info >= (3, 11):
    import tomllib
else:  # pragma: no cover - Python 3.10 reads TOML through the backport
    # mypy targets 3.10 but may run where the backport is not installed
    import tomli as tomllib  # type: ignore[import-not-found]

CONFIG_KEYS = ("paths", "exclude")


def read_toml(path: Path) -> dict[str, Any]:
    """Parse the TOML file at ``path`` (``tomllib``, or ``tomli`` before
    Python 3.11); raises ``tomllib.TOMLDecodeError`` on bad input."""
    data: dict[str, Any] = tomllib.loads(path.read_text(encoding="utf-8"))
    return data


class UsageError(Exception):
    """A command line or configuration simlint cannot run with (exit 2)."""


def _load_config(root: Path) -> dict:
    cur = root.resolve()
    while True:
        candidate = cur / "pyproject.toml"
        if candidate.is_file():
            try:
                data = read_toml(candidate)
            except tomllib.TOMLDecodeError as exc:
                raise UsageError(f"{candidate} does not parse: {exc}") from None
            config = data.get("tool", {}).get("simlint", {})
            unknown = sorted(set(config) - set(CONFIG_KEYS))
            if unknown:
                raise UsageError(
                    f"{candidate}: unknown [tool.simlint] key(s) "
                    f"{', '.join(unknown)} (known: {', '.join(CONFIG_KEYS)})")
            for key, value in config.items():
                if not (isinstance(value, list)
                        and all(isinstance(v, str) for v in value)):
                    raise UsageError(
                        f"{candidate}: [tool.simlint] {key} must be a list "
                        f"of strings")
            return config
        if cur.parent == cur:
            return {}
        cur = cur.parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="simlint: determinism & simulation-safety analyzer")
    parser.add_argument("paths", nargs="*",
                        help="files/directories to lint (default: "
                             "[tool.simlint] paths, else 'src')")
    parser.add_argument("--root", default=".",
                        help="directory paths and reports are relative to")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as JSON on stdout")
    parser.add_argument("--list-rules", action="store_true",
                        help="list rule ids and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.rule_id}: {rule.description}")
        return 0

    root = Path(args.root).resolve()
    try:
        config = _load_config(root)
        paths = list(args.paths) or config.get("paths") or ["src"]
        missing = [p for p in paths if not (root / p).exists()]
        if missing:
            raise UsageError(f"no such path under {root}: {', '.join(missing)}")
    except UsageError as exc:
        print(f"simlint: {exc}", file=sys.stderr)
        return 2

    report = run_lint(paths, root=root, exclude=config.get("exclude", []))
    if args.as_json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        summary = (f"simlint: {len(report.findings)} finding(s) in "
                   f"{report.files_scanned} file(s)")
        if report.suppressed:
            summary += f", {len(report.suppressed)} suppressed"
        print(summary)
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
