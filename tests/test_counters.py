"""Tests for the power-of-two approximate counters."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.counters import next_pow2


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
        assert approx & (approx - 1) == 0

