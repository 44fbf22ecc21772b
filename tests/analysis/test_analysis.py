"""Tests for table rendering and comparison helpers."""

import math

import pytest

from repro.analysis import (
    crossover_point,
    format_series,
    format_table,
    ratio,
    relative_speedup,
)


class TestFormatTable:
    def test_basic_alignment(self):
        out = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "22" in lines[3]
        # all rows same width
        assert len({len(l) for l in lines}) == 1

    def test_explicit_columns(self):
        out = format_table([{"a": 1, "b": 2}], columns=["b", "a"])
        assert out.splitlines()[0].startswith("b")

    def test_missing_values_dash(self):
        out = format_table([{"a": 1}, {"a": None}])
        assert "-" in out.splitlines()[-1]

    def test_empty_rows(self):
        assert "(no rows)" in format_table([])

    def test_title(self):
        assert format_table([{"a": 1}], title="T").splitlines()[0] == "T"

    def test_float_formatting(self):
        out = format_table([{"v": 1234567.0}, {"v": 0.5}, {"v": float("nan")}])
        assert "1.23e+06" in out
        assert "0.50" in out
        assert "nan" in out


class TestFormatSeries:
    def test_bars_scale_to_peak(self):
        out = format_series([1, 2], {"a": [10.0, 20.0], "b": [5.0, 0.0]},
                            width=10)
        lines = out.splitlines()
        peak_line = [l for l in lines if "20.00" in l][0]
        assert peak_line.count("#") == 10
        zero_line = [l for l in lines if " 0.00" in l][0]
        assert "#" not in zero_line

    def test_empty_series(self):
        assert format_series([], {}, title="t") == "t"


class TestRatios:
    def test_ratio(self):
        assert ratio(10, 2) == 5

    def test_a_zero_denominator_is_no_evidence(self):
        """nan, so every check comparing the ratio fails (inf passed ``>= 10``)."""
        assert math.isnan(ratio(1, 0)) and math.isnan(ratio(0, 0))

    def test_relative_speedup(self):
        assert relative_speedup(123, 100) == pytest.approx(23.0)
        assert relative_speedup(80, 100) == pytest.approx(-20.0)
        assert relative_speedup(1, 0) == float("inf")


class TestCrossover:
    def test_finds_crossover(self):
        x = [1, 2, 3, 4]
        a = [1, 2, 5, 9]   # overtakes b at x=3
        b = [3, 4, 4, 4]
        assert crossover_point(x, a, b) == 3

    def test_no_crossover(self):
        x = [1, 2, 3]
        assert crossover_point(x, [1, 2, 3], [5, 6, 7]) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            crossover_point([1], [1, 2], [1, 2])
