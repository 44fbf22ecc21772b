"""Parsed-source container handed to every rule.

Keeps the AST, the raw lines (for suppression comments) and the dotted
module name, so rules can scope themselves to packages (e.g. the
event-ordering-sensitive modules) without re-deriving anything.

Parent links: :func:`attach_parents` stores each node's parent on the
node itself (``_simlint_parent``), letting rules walk *up* the tree —
``ast`` only supports walking down.  Identity-keyed side tables are
deliberately avoided: they would depend on interpreter object addresses,
and simlint holds itself to the determinism bar it enforces.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

PARENT_ATTR = "_simlint_parent"


def attach_parents(tree: ast.AST) -> None:
    """Store a ``_simlint_parent`` attribute on every node in ``tree``."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            setattr(child, PARENT_ATTR, node)


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, PARENT_ATTR, None)


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """Yield parents from the immediate one up to the module node."""
    cur = parent_of(node)
    while cur is not None:
        yield cur
        cur = parent_of(cur)


def module_name_for(path: Path) -> str:
    """Dotted module name inferred from package ``__init__.py`` files.

    ``src/repro/lint/engine.py`` → ``repro.lint.engine``;
    ``tests/sim/test_core.py`` → ``tests.sim.test_core`` (the test tree
    is a package); a free-standing file such as
    ``scripts/check_ledger_exact.py`` maps to its bare stem.
    """
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    cur = path.parent
    while (cur / "__init__.py").exists():
        parts.insert(0, cur.name)
        nxt = cur.parent
        if nxt == cur:  # filesystem root; defensive
            break
        cur = nxt
    return ".".join(parts) if parts else path.stem


@dataclass(frozen=True)
class SourceFile:
    """One parsed Python file."""

    path: Path          #: absolute path on disk
    display: str        #: POSIX-form path used in findings
    module: str         #: dotted module name (the bare stem when unpackaged)
    source: str
    tree: ast.Module
    lines: tuple[str, ...]

    def in_package(self, *packages: str) -> bool:
        """True if :attr:`module` is one of ``packages`` or inside one."""
        return any(self.module == p or self.module.startswith(p + ".")
                   for p in packages)

    @classmethod
    def parse(cls, path: Path, display: Optional[str] = None,
              module: Optional[str] = None) -> "SourceFile":
        """Read and parse ``path``; raises ``SyntaxError`` on bad input
        (the engine converts that into a ``parse-error`` finding)."""
        text = path.read_text(encoding="utf-8")
        return cls.from_source(text, path=path, display=display, module=module)

    @classmethod
    def from_source(cls, text: str, *, path: Path,
                    display: Optional[str] = None,
                    module: Optional[str] = None) -> "SourceFile":
        tree = ast.parse(text, filename=str(path))
        attach_parents(tree)
        return cls(
            path=path,
            display=display if display is not None else path.as_posix(),
            module=module if module is not None else module_name_for(path),
            source=text,
            tree=tree,
            lines=tuple(text.splitlines()),
        )
