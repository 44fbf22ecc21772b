"""The layer map: which layer a source file's host time is charged to.

Layers are this repo's packages.  A profile entry is bucketed by the
file its code object came from, never by function name, so renaming or
splitting a function inside the program cannot move a counter; only
moving code between packages can, and that is a reviewed change to this
map.
"""

from __future__ import annotations

import inspect
import os

OTHER = "other"

LAYERS = ("sim", "sim.resources", "rdma", "memory", "cluster", "locks",
          "locktable", "workload", "obs", "parallel", "schedcheck", OTHER)

#: every sub-package of ``src/repro`` -> its layer.  ``other`` collects
#: what no ledger workload spends measurable time in (plus stdlib,
#: numpy, builtins and the harness itself).
PACKAGE_LAYER = {
    "analysis": OTHER,
    "cluster": "cluster",
    "common": OTHER,
    "experiments": OTHER,
    "faults": OTHER,
    "kvstore": OTHER,
    "lint": OTHER,
    "locks": "locks",
    "locktable": "locktable",
    "memory": "memory",
    "obs": "obs",
    "parallel": "parallel",
    "rdma": "rdma",
    "schedcheck": "schedcheck",
    "sim": "sim",
    "verification": OTHER,
    "workload": "workload",
}

#: single files that are a layer of their own inside a package
FILE_LAYER = {("sim", "resources.py"): "sim.resources"}

_MARKER = os.sep + "repro" + os.sep


def layer_of(filename: str) -> str:
    """Layer of one ``co_filename`` (``other`` for anything outside
    ``repro`` or directly under it)."""
    _, found, tail = filename.rpartition(_MARKER)
    if not found:
        return OTHER
    parts = tail.split(os.sep)
    if len(parts) < 2:
        return OTHER
    package = parts[0]
    return FILE_LAYER.get((package, parts[-1]), PACKAGE_LAYER.get(package, OTHER))


def unmapped_packages(repro_dir: str) -> list[str]:
    """Sub-packages on disk that :data:`PACKAGE_LAYER` does not name."""
    on_disk = sorted(
        entry for entry in os.listdir(repro_dir)
        if os.path.isfile(os.path.join(repro_dir, entry, "__init__.py")))
    return [pkg for pkg in on_disk if pkg not in PACKAGE_LAYER]


def attribute(stats, ops: int) -> dict[str, float]:
    """Per-layer metrics from ``cProfile.Profile.getstats()`` entries.

    Self time is the profiler's ``inlinetime`` (an entry's duration
    minus its callees).  A generator's every resume is one profiler
    call, so resumes are the call counts of generator code objects.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    resumes = dict.fromkeys(LAYERS, 0)
    for entry in stats:
        code = entry.code
        if isinstance(code, str):       # a builtin: no file to charge
            layer = OTHER
        else:
            layer = layer_of(code.co_filename)
            if code.co_flags & inspect.CO_GENERATOR:
                resumes[layer] += entry.callcount
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
    total = sum(self_s.values())
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share_pct"] = 100.0 * self_s[layer] / total if total else 0.0
        out[f"{layer}.calls_per_op"] = calls[layer] / ops
        out[f"{layer}.resumes_per_op"] = resumes[layer] / ops
    return out
