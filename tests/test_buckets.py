"""Tests for the degree buckets and bucket families."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.buckets import BucketFamily
from repro.index.counters import next_pow2


class TestBucket:
    """A bucket's contents, written through the family's one mutator."""

    def test_add_and_positions(self):
        family = BucketFamily()
        family.reweight(("a",), 0, 2)
        family.reweight(("b",), 0, 2)
        bucket = family._buckets[1]
        assert len(bucket) == 2
        assert bucket.at(0) == ("a",)
        assert bucket.at(1) == ("b",)
        assert ("a",) in bucket and ("c",) not in bucket

    def test_remove_swaps_with_last(self):
        family = BucketFamily()
        for name in ("a", "b", "c"):
            family.reweight((name,), 0, 1)
        family.reweight(("a",), 1, 0)
        bucket = family._buckets[0]
        assert len(bucket) == 2
        assert list(bucket) == [("c",), ("b",)]
        # Position access still works for every remaining entity.
        assert [bucket.at(0), bucket.at(1)] == [("c",), ("b",)]

    def test_remove_missing_raises(self):
        family = BucketFamily()
        with pytest.raises(KeyError):
            family.reweight(("missing",), 1, 0)
        family.reweight(("a",), 0, 1)
        with pytest.raises(KeyError):
            family.reweight(("missing",), 1, 0)


class TestBucketFamily:
    def test_move_inserts_and_counts(self):
        family = BucketFamily()
        family.reweight(("a",), 0, 4)
        family.reweight(("b",), 0, 2)
        assert family.cnt == 6
        assert family.approx == 8
        assert sum(family.bucket_sizes().values()) == 2
        assert family.weight_sum() == family.cnt

    def test_move_reweights(self):
        family = BucketFamily()
        family.reweight(("a",), 0, 2)
        family.reweight(("a",), 2, 8)
        assert family.cnt == 8
        assert family.bucket_sizes() == {3: 1}

    def test_move_to_zero_removes(self):
        family = BucketFamily()
        family.reweight(("a",), 0, 4)
        family.reweight(("a",), 4, 0)
        assert family.cnt == 0
        assert family.bucket_sizes() == {}
        assert family.approx == 0

    def test_move_noop_when_same_weight(self):
        family = BucketFamily()
        family.reweight(("a",), 0, 4)
        family.reweight(("a",), 4, 4)
        assert (family.cnt, family.approx) == (4, 4)
        assert family.bucket_sizes() == {2: 1}

    def test_approx_change_reported(self):
        family = BucketFamily()
        family.reweight(("a",), 0, 2)
        assert (family.cnt, family.approx) == (2, 2)
        family.reweight(("b",), 0, 2)
        assert (family.cnt, family.approx) == (4, 4)
        family.reweight(("c",), 0, 1)
        assert (family.cnt, family.approx) == (5, 8)

    def test_locate_maps_every_position(self):
        family = BucketFamily()
        weights = {("a",): 1, ("b",): 4, ("c",): 4, ("d",): 2}
        for entity, weight in weights.items():
            family.reweight(entity, 0, weight)
        seen = {entity: [] for entity in weights}
        for position in range(family.cnt):
            entity, offset = family.locate(position)
            seen[entity].append(offset)
        # Every entity receives exactly `weight` consecutive offsets 0..w-1.
        for entity, weight in weights.items():
            assert sorted(seen[entity]) == list(range(weight))

    def test_locate_out_of_range_is_none(self):
        family = BucketFamily()
        family.reweight(("a",), 0, 2)
        assert family.locate(2) is None
        assert family.locate(100) is None
        with pytest.raises(ValueError):
            family.locate(-1)

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 6)), min_size=1, max_size=40
        )
    )
    @settings(max_examples=150)
    def test_locate_bijection_property(self, updates):
        """After arbitrary re-weightings, locate() is a bijection onto (entity, offset)."""
        family = BucketFamily()
        current = {}
        for identity, exponent in updates:
            entity = (identity,)
            old = current.get(entity, 0)
            new = (1 << exponent) if exponent > 0 else 0
            family.reweight(entity, old, new)
            current[entity] = new
        assert family.cnt == sum(current.values())
        assert family.weight_sum() == family.cnt
        assert family.approx == next_pow2(family.cnt)
        counted = {}
        for position in range(family.cnt):
            entity, offset = family.locate(position)
            assert 0 <= offset < current[entity]
            counted[entity] = counted.get(entity, 0) + 1
        for entity, weight in current.items():
            assert counted.get(entity, 0) == weight
