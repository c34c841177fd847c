"""Tests for the power-of-two approximate counters."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.counters import is_pow2, next_pow2, pow2_exponent


class TestNextPow2:
    def test_known_values(self):
        assert [next_pow2(v) for v in (0, 1, 2, 3, 4, 5, 8, 9, 1023, 1024)] == [
            0, 1, 2, 4, 4, 8, 8, 16, 1024, 1024,
        ]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            next_pow2(-1)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_bounds(self, value):
        approx = next_pow2(value)
        assert value <= approx < 2 * value
        assert is_pow2(approx)


class TestPow2Exponent:
    def test_roundtrip(self):
        for exponent in range(20):
            assert pow2_exponent(1 << exponent) == exponent

    def test_rejects_non_powers(self):
        for value in (0, 3, 6, -4):
            with pytest.raises(ValueError):
                pow2_exponent(value)


class TestIsPow2:
    def test_examples(self):
        assert is_pow2(1) and is_pow2(2) and is_pow2(1024)
        assert not is_pow2(0) and not is_pow2(3) and not is_pow2(-2)
