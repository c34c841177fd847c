"""Tests for the string workload and banded edit distance (Section 6.3)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.strings import (
    levenshtein,
    levenshtein_within,
    perturb,
    random_string,
    string_stream,
)

from tests.density import density, label_items

short_strings = st.text(alphabet="abcd", max_size=12)


class TestLevenshtein:
    def test_known_distances(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "abc") == 0

    @given(short_strings, short_strings, st.integers(min_value=0, max_value=6))
    @settings(max_examples=300)
    def test_banded_matches_full(self, first, second, limit):
        assert levenshtein_within(first, second, limit) == (levenshtein(first, second) <= limit)

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            levenshtein_within("a", "b", -1)

    def test_length_difference_shortcut(self):
        assert not levenshtein_within("a" * 30, "a", 5)


class TestPerturbation:
    def test_perturb_within_requested_edits(self):
        rng = random.Random(0)
        base = random_string(40, rng)
        for edits in range(0, 10):
            variant = perturb(base, edits, rng)
            assert levenshtein(base, variant) <= edits

    def test_random_string_length_and_alphabet(self):
        rng = random.Random(1)
        value = random_string(25, rng, alphabet="xy")
        assert len(value) == 25
        assert set(value) <= {"x", "y"}


class TestStringStream:
    def test_density_respected(self):
        rng = random.Random(2)
        for target in (0.1, 0.5, 1.0):
            items, _, predicate = string_stream(300, target, rng)
            labelled = label_items(items, predicate)
            assert density(labelled) >= target - 1e-9

    def test_zero_density_has_no_real_items(self):
        rng = random.Random(3)
        items, _, predicate = string_stream(100, 0.0, rng)
        assert not any(predicate(item) for item in items)

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError):
            string_stream(10, 1.5, random.Random(0))

    def test_predicate_counts_evaluations(self):
        rng = random.Random(4)
        items, query_string, predicate = string_stream(50, 0.2, rng)
        evaluated = sum(1 for item in items if predicate(item) or True)
        assert predicate.evaluations == evaluated == 50

    def test_real_items_are_near_query_string(self):
        rng = random.Random(5)
        items, query_string, predicate = string_stream(200, 0.3, rng, threshold=8)
        for item in items:
            if predicate(item):
                assert levenshtein(query_string, item) <= 8
