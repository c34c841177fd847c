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
    def test_remain_and_len(self):
        batch = ListBatch([1, 2, 3])
        assert len(batch) == 3
        assert batch.remain() == 3
        batch.skip(0)
        assert batch.remain() == 2
        batch.skip(1)
        assert batch.remain() == 0

    def test_next_and_skip(self):
        batch = ListBatch([10, 11, 12, 13, 14])
        assert batch.skip(0) == 10      # next()
        assert batch.skip(2) == 13
        assert batch.remain() == 1
        assert batch.skip(0) == 14
        assert batch.remain() == 0

    def test_skip_past_end_raises(self):
        batch = ListBatch([1, 2])
        with pytest.raises(IndexError):
            batch.skip(2)
        # A failed skip consumes nothing.
        assert batch.remain() == 2
        assert batch.skip(1) == 2
        with pytest.raises(IndexError):
            batch.skip(0)

    def test_negative_skip_rejected(self):
        with pytest.raises(ValueError):
            ListBatch([1]).skip(-1)

    def test_none_items_are_returned_not_treated_as_end(self):
        batch = ListBatch([None, 1])
        assert batch.skip(0) is None
        assert batch.skip(0) == 1
        with pytest.raises(IndexError):
            batch.skip(0)


class TestFunctionBatch:
    def test_lazy_retrieval(self):
        calls = []

        def retrieve(position):
            calls.append(position)
            return position * 10 if position % 2 == 0 else None

        batch = FunctionBatch(6, retrieve)
        assert len(batch) == 6
        assert batch.skip(0) == 0       # position 0
        assert batch.skip(1) == 20      # skips position 1, returns position 2
        assert batch.skip(0) is None    # position 3 is a dummy
        assert calls == [0, 2, 3]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            FunctionBatch(-1, lambda position: position)

    def test_zero_size_batch(self):
        batch = FunctionBatch(0, lambda position: position)
        assert batch.remain() == 0
        with pytest.raises(IndexError):
            batch.skip(0)

    def test_items_examined(self):
        # The reservoir counts exactly the positions it retrieves.
        calls = []
        batch = FunctionBatch(100_000, lambda position: calls.append(position) or position)
        reservoir = BatchedPredicateReservoir(5, rng=random.Random(1))
        reservoir.process_batch(batch)
        assert reservoir.items_examined == len(calls) == len(set(calls))
        assert 5 <= len(calls) < 1000
