"""Tests for the degree buckets and bucket families."""

import pickle
import pickletools
import sys

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
        assert list(bucket) == [("a",), ("b",)]
        assert ("a",) in bucket and ("c",) not in bucket

    def test_remove_swaps_with_last(self):
        family = BucketFamily()
        for name in ("a", "b", "c"):
            family.reweight((name,), 0, 1)
        family.reweight(("a",), 1, 0)
        bucket = family._buckets[0]
        assert len(bucket) == 2
        assert list(bucket) == [("c",), ("b",)]
        # locate still reaches every remaining entity at its new position.
        assert [family.locate(0), family.locate(1)] == [(("c",), 0), (("b",), 0)]

    def test_remove_missing_raises(self):
        family = BucketFamily()
        with pytest.raises(KeyError):
            family.reweight(("missing",), 1, 0)
        family.reweight(("a",), 0, 1)
        with pytest.raises(KeyError):
            family.reweight(("missing",), 1, 0)


class TestBucketFamily:
    def test_moves_keep_the_position_map_compact(self):
        """A move overwrites the entity's position in place.  In CPython a
        popped key that is inserted again takes a fresh entry slot, so
        popping on every move would grow the map past a freshly built one."""
        family = BucketFamily()
        entities = [(name,) for name in range(16)]
        for entity in entities:
            family.reweight(entity, 0, 2)
        weight = 2
        for _ in range(625):
            for entity in entities:
                family.reweight(entity, weight, 10 - weight)
            weight = 10 - weight
            assert sys.getsizeof(family._positions) <= sys.getsizeof(dict(family._positions.items()))
        assert family.bucket_sizes() == {3: 16}
        assert sorted(family._positions) == entities

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
        # The buckets stay in exponent order, and a pickle round trip keeps
        # every position where it was.
        assert list(family._buckets) == sorted(family._buckets)
        layout = expected_layout(family)
        assert [family.locate(z) for z in range(family.cnt)] == layout
        restored = pickle.loads(pickle.dumps(family))
        assert [restored.locate(z) for z in range(restored.cnt)] == layout


def expected_layout(family):
    """``(entity, offset)`` for every position, built from ``bucket_sizes``:
    buckets by ascending exponent, entities in bucket order."""
    layout = []
    for exponent, size in sorted(family.bucket_sizes().items()):
        bucket = family._buckets[exponent]
        assert len(bucket) == size
        for entity in bucket:
            layout.extend((entity, offset) for offset in range(1 << exponent))
    return layout


class TestLayout:
    """Buckets stay in exponent order; the pickled form holds no position map."""

    def mixed_family(self):
        family = BucketFamily()
        for name, weight in (("a", 1), ("b", 4), ("c", 1), ("d", 2), ("e", 4)):
            family.reweight((name,), 0, weight)
        return family

    def test_recreated_low_bucket_keeps_exponent_order(self):
        family = self.mixed_family()
        family.reweight(("a",), 1, 0)
        family.reweight(("c",), 1, 0)
        assert list(family._buckets) == [1, 2]
        # Bucket 0 comes back while bucket 2 exists, after it in the dict.
        family.reweight(("f",), 0, 1)
        family.reweight(("d",), 2, 0)
        family.reweight(("g",), 0, 2)
        assert list(family._buckets) == sorted(family._buckets) == [0, 1, 2]
        assert [family.locate(z) for z in range(family.cnt)] == expected_layout(family)

    def test_pickle_holds_no_position_map(self):
        family = self.mixed_family()
        family.reweight(("b",), 4, 0)
        data = pickle.dumps(family, protocol=pickle.HIGHEST_PROTOCOL)
        opcodes = {opcode.name for opcode, _, _ in pickletools.genops(data)}
        assert not opcodes & {"EMPTY_DICT", "DICT", "SETITEM", "SETITEMS"}
        restored = pickle.loads(data)
        assert (restored.cnt, restored.approx) == (family.cnt, family.approx)
        assert list(restored._buckets) == list(family._buckets)
        assert [restored.locate(z) for z in range(restored.cnt)] == [
            family.locate(z) for z in range(family.cnt)
        ]
        for exponent, bucket in list(family._buckets.items()):
            for entity in list(bucket):
                restored.reweight(entity, 1 << exponent, 0)
        assert (restored.cnt, restored.approx, restored.bucket_sizes()) == (0, 0, {})
