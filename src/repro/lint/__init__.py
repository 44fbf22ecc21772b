"""simlint — AST-based determinism & simulation-safety analyzer.

The reproduction's headline guarantee — identical spec ⇒ identical
timeline, to the bit — rests on conventions that are invisible at
runtime until they break: all randomness through
:class:`repro.common.rng.RngStreams`, no set-order-dependent event
scheduling, paired admission/release on :class:`repro.sim.resources.
Resource`, and memory traffic through the Table-1
:class:`repro.memory.races.RaceAuditor`.  simlint enforces those
conventions statically, before a nondeterministic run ever happens.

Usage::

    python -m repro.lint                  # lint [tool.simlint] paths
    python -m repro.lint src tests        # explicit paths
    python -m repro.lint --json           # the report as JSON

Every run is the whole analysis: the rules, one AST at a time, and
the check that every suppression comment still suppresses something;
see ``docs/architecture.md`` ("Static analysis: simlint").

See :mod:`repro.lint.rules` for the rule set and ``docs/tutorial.md``
for the suppression workflow.
"""

from repro.lint.engine import LintReport, lint_file, run_lint
from repro.lint.findings import ERROR, WARNING, Finding
from repro.lint.rules import (
    DEFAULT_SENSITIVE_PACKAGES,
    DEFAULT_SIM_PACKAGES,
    Rule,
    default_rules,
)

__all__ = [
    "DEFAULT_SENSITIVE_PACKAGES",
    "DEFAULT_SIM_PACKAGES",
    "ERROR",
    "Finding",
    "LintReport",
    "Rule",
    "WARNING",
    "default_rules",
    "lint_file",
    "run_lint",
]
