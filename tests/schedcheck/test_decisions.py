"""Unit tests for sparse decision strings."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigError
from repro.schedcheck import Decisions


class TestConstruction:
    def test_default_picks_are_dropped(self):
        d = Decisions([(3, 0), (7, 2), (9, 0)])
        assert len(d) == 1
        assert d.get(7) == 2
        assert d.get(3) == 0 and d.get(9) == 0

    def test_from_dense_log(self):
        d = Decisions.from_dense([0, 0, 2, 0, 1])
        assert dict(d.items()) == {2: 2, 4: 1}

    def test_negative_entries_rejected(self):
        with pytest.raises(ConfigError):
            Decisions([(-1, 2)])
        with pytest.raises(ConfigError):
            Decisions([(1, -2)])

    def test_parse_render_roundtrip(self):
        d = Decisions.parse("17:2,45:1")
        assert d.to_string() == "17:2,45:1"
        assert Decisions.parse("") == Decisions()

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            Decisions.parse("17-2")
        with pytest.raises(ConfigError):
            Decisions.parse("17:2,oops")

    def test_entries_sorted_regardless_of_input_order(self):
        assert Decisions([(9, 1), (2, 3)]).to_string() == "2:3,9:1"

    @pytest.mark.parametrize("text", ["3:1,3:2", "3:2,3:2", "3:0,3:2",
                                      "3:2,3:0", "3:0,3:0", "1:1,3:1,7:2,3:1"])
    def test_repeated_choice_index_rejected(self, text):
        """A repeated index, a default ``k:0`` one included, is an
        error: last-wins would replay a schedule nobody wrote."""
        with pytest.raises(ConfigError, match="choice index 3 appears twice"):
            Decisions.parse(text)

    def test_repeated_choice_index_rejected_from_entries(self):
        with pytest.raises(ConfigError, match="choice index 4 appears twice"):
            Decisions([(4, 1), (9, 2), (4, 1)])


class TestEditing:
    def test_without(self):
        d = Decisions.parse("1:1,5:2,9:3")
        assert d.without([5]).to_string() == "1:1,9:3"
        assert d.without([1, 5, 9]) == Decisions()

    def test_replace(self):
        d = Decisions.parse("5:2")
        assert d.replace(5, 1).to_string() == "5:1"
        assert d.replace(5, 0) == Decisions()  # default pick vanishes

    def test_last_index(self):
        assert Decisions.parse("3:1,11:2").last_index == 11
        assert Decisions().last_index == -1

    def test_equality_and_hash(self):
        a, b = Decisions.parse("4:1"), Decisions([(4, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Decisions.parse("4:2")


@given(st.dictionaries(st.integers(0, 300), st.integers(1, 7), max_size=12))
def test_roundtrip_property(mapping):
    d = Decisions.from_mapping(mapping)
    assert Decisions.parse(d.to_string()) == d
    assert len(d) == len(mapping)
