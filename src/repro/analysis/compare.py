"""Comparison helpers used by shape assertions in benchmarks and by
EXPERIMENTS.md generation."""

from __future__ import annotations

from typing import Sequence


def ratio(a: float, b: float) -> float:
    """``a / b``; ``nan`` over a zero denominator, which measured
    nothing, so every comparison with the ratio fails."""
    return a / b if b else float("nan")


def relative_speedup(value: float, baseline: float) -> float:
    """Percent improvement of ``value`` over ``baseline`` (Fig. 4's
    y-axis): +23 means 23% faster."""
    if baseline == 0:
        return float("inf") if value > 0 else 0.0
    return 100.0 * (value - baseline) / baseline


def crossover_point(x: Sequence[float], a: Sequence[float],
                    b: Sequence[float]) -> float | None:
    """First x where series ``a`` overtakes ``b`` (a >= b after being
    behind), or None if their order never flips.  Used to locate the
    contention/locality crossovers the paper discusses."""
    if len(x) != len(a) or len(x) != len(b):
        raise ValueError("series lengths differ")
    behind = None
    for xi, ai, bi in zip(x, a, b):
        now_behind = ai < bi
        if behind is not None and behind and not now_behind:
            return xi
        behind = now_behind
    return None
