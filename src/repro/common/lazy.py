"""Lazy package re-exports (PEP 562).

A package ``__init__`` that imported every name it re-exports would make
any ``import repro.X`` load every sibling module: all seven lock kinds,
the corpus, the shrinker, the analysis layer.  Instead a package hands
this helper its export table and binds the module ``__getattr__`` and
``__dir__`` it returns; ``from repro import ALock`` then imports the one
module that defines ``ALock``, when it is first asked for, and caches
the name in the package so later lookups never reach the hook.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(package: str, exports: Mapping[str, tuple[str, ...]]
                 ) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """PEP 562 ``(__getattr__, __dir__)`` for ``package``, which
    re-exports each name in ``exports[module]`` from ``module``."""
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__


__all__ = ["lazy_exports"]
