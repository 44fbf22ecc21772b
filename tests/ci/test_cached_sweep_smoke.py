"""The cached-sweep smoke gate (``scripts/cached_sweep_smoke.py``), run
as part of tier-1: locally on every pytest run, in CI on every Python
of the tests job."""

from __future__ import annotations

import pathlib
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[2] / "scripts"


def _load_gate():
    sys.path.insert(0, str(SCRIPTS))
    try:
        import cached_sweep_smoke
    finally:
        sys.path.pop(0)
    return cached_sweep_smoke


def test_gate_passes_on_the_current_tree(tmp_path):
    gate = _load_gate()
    assert gate.run_gate(workers=0, cache_dir=str(tmp_path)) == []


def test_gate_catches_a_non_memoizing_cache(tmp_path, monkeypatch):
    """Sanity-check the gate itself: if lookups never hit, it must
    report the hit-rate failure rather than pass vacuously."""
    from repro.parallel import ResultCache

    gate = _load_gate()
    monkeypatch.setattr(ResultCache, "lookup_cell",
                        lambda self, cell, metric: None)
    problems = gate.run_gate(workers=0, cache_dir=str(tmp_path))
    assert any("hit rate" in p for p in problems)
