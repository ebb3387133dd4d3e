"""Tests for the ASCII chart helpers."""

import pytest

from repro.util.ascii import hbar_chart


class TestHBar:
    def test_basic_render(self):
        out = hbar_chart(["a", "bb"], [10.0, 20.0], width=10)
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(" a |")
        assert lines[1].count("#") == 10  # max value fills the width
        assert lines[0].count("#") == 5

    def test_shared_scale(self):
        out = hbar_chart(["x"], [5.0], width=10, max_value=50.0)
        assert out.count("#") == 1

    def test_zero_values(self):
        out = hbar_chart(["z"], [0.0], width=10)
        assert "#" not in out

    def test_small_positive_gets_one_glyph(self):
        out = hbar_chart(["tiny", "big"], [1e-9, 100.0], width=10)
        assert out.splitlines()[0].count("#") == 1

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            hbar_chart(["a"], [1.0, 2.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hbar_chart(["a"], [-1.0])

    def test_empty(self):
        assert hbar_chart([], []) == "(empty chart)\n"

    def test_value_formatting(self):
        out = hbar_chart(["a"], [1234.5], fmt="{:.1f}")
        assert "1234.5" in out

