"""Finding and severity types shared by every simlint rule.

A :class:`Finding` is one diagnostic anchored to a file/line/column.
The dataclass is ordered so that sorting a list of findings yields the
canonical report order — (file, line, col, rule, message) — which the
CI gate relies on being identical across runs, interpreters, and
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

#: Finding severities.  Both gate the tree (the exit code does not
#: distinguish them); the split exists so reports can prioritise.
ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic produced by a rule.

    Attributes:
        file: path as given to the engine, normalised to POSIX form —
            stable across platforms so reports are portable.
        line: 1-based source line.
        col: 0-based column (``ast`` convention).
        rule: rule identifier, e.g. ``"nondet-source"``.
        severity: :data:`ERROR` or :data:`WARNING`.
        message: human-readable description of the hazard.
    """

    file: str
    line: int
    col: int
    rule: str
    severity: str
    message: str

    def render(self) -> str:
        """``file:line:col: severity rule: message`` (clickable in most
        editors and CI logs)."""
        return (f"{self.file}:{self.line}:{self.col}: "
                f"{self.severity} {self.rule}: {self.message}")

    def to_json(self) -> dict:
        return asdict(self)
