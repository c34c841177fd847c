"""Tests for the batch protocol."""

import random

import pytest

from repro.core.batch_reservoir import BatchedPredicateReservoir
from repro.core.skippable import FunctionBatch, ListBatch, is_real


class TestIsReal:
    def test_none_is_dummy(self):
        assert not is_real(None)
        assert is_real(0)
        assert is_real({"x": 1})


class TestListBatch:
    def test_len(self):
        assert len(ListBatch([1, 2, 3])) == 3
        assert len(ListBatch([])) == 0

    def test_none_items_are_returned_not_treated_as_end(self):
        # A dummy is an item the predicate rejects, not the end of the
        # batch: the fill phase reads on past each one.
        reservoir = BatchedPredicateReservoir(3, rng=random.Random(1))
        reservoir.process_batch(ListBatch([None, 1, None, None, 2]))
        assert reservoir.items_examined == 5
        assert reservoir.sample == [1, 2]


class TestFunctionBatch:
    def test_construction_retrieves_nothing(self):
        calls = []
        batch = FunctionBatch(6, calls.append)
        assert len(batch) == 6
        assert calls == []

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            FunctionBatch(-1, lambda position: position)

    def test_zero_size_batch(self):
        def retrieve(position):
            raise AssertionError("an empty batch has no position to read")

        reservoir = BatchedPredicateReservoir(5, rng=random.Random(1))
        reservoir.process_batch(FunctionBatch(0, retrieve))
        assert reservoir.items_examined == 0
        assert reservoir.sample == []

    def test_reads_each_position_inside_the_batch_once_in_order(self):
        # Skips past a batch's end carry over to the next batch; no read
        # lands outside a batch or repeats a position.
        reservoir = BatchedPredicateReservoir(4, rng=random.Random(7))
        for size in [0, 1, 3, 10, 50, 200, 1000, 2, 5000]:
            calls = []

            def retrieve(position, size=size, calls=calls):
                assert 0 <= position < size
                calls.append(position)
                return position

            reservoir.process_batch(FunctionBatch(size, retrieve))
            assert calls == sorted(set(calls))
        assert reservoir.items_total == 6266

    def test_items_examined(self):
        # The reservoir counts exactly the positions it retrieves.
        calls = []
        batch = FunctionBatch(100_000, lambda position: calls.append(position) or position)
        reservoir = BatchedPredicateReservoir(5, rng=random.Random(1))
        reservoir.process_batch(batch)
        assert reservoir.items_examined == len(calls) == len(set(calls))
        assert 5 <= len(calls) < 1000
