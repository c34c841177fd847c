"""Tests for stream utilities."""

import random

import pytest

from repro.relational.stream import (
    StreamTuple,
    checkpoints,
    concatenate,
    interleave,
    renumber,
    shuffled,
    stream_from_rows,
)


class TestStreamTuple:
    def test_row_is_tuple(self):
        item = StreamTuple("R", [1, 2], 5)
        assert item.row == (1, 2)
        assert item.relation == "R"
        assert item.timestamp == 5

    def test_frozen(self):
        item = StreamTuple("R", (1,))
        with pytest.raises(Exception):
            item.relation = "S"


class TestBuilders:
    def test_stream_from_rows_timestamps(self):
        stream = stream_from_rows("R", [(1,), (2,)], start=10)
        assert [item.timestamp for item in stream] == [10, 11]
        assert [item.row for item in stream] == [(1,), (2,)]

    def test_renumber(self):
        stream = stream_from_rows("R", [(1,), (2,)], start=99)
        renumbered = renumber(stream)
        assert [item.timestamp for item in renumbered] == [0, 1]

    def test_shuffled_is_permutation(self):
        stream = stream_from_rows("R", [(i,) for i in range(20)])
        mixed = shuffled(stream, random.Random(0))
        assert sorted(item.row for item in mixed) == sorted(item.row for item in stream)
        assert [item.timestamp for item in mixed] == list(range(20))

    def test_concatenate(self):
        first = stream_from_rows("A", [(1,)])
        second = stream_from_rows("B", [(2,)])
        merged = concatenate([first, second])
        assert [(item.relation, item.row) for item in merged] == [("A", (1,)), ("B", (2,))]
        assert [item.timestamp for item in merged] == [0, 1]


class TestInterleave:
    def test_preserves_per_stream_order(self):
        first = stream_from_rows("A", [(i,) for i in range(30)])
        second = stream_from_rows("B", [(i,) for i in range(20)])
        merged = interleave([first, second], random.Random(1))
        assert len(merged) == 50
        a_rows = [item.row for item in merged if item.relation == "A"]
        b_rows = [item.row for item in merged if item.relation == "B"]
        assert a_rows == [(i,) for i in range(30)]
        assert b_rows == [(i,) for i in range(20)]

    def test_empty_streams(self):
        assert interleave([[], []], random.Random(0)) == []


class TestCheckpoints:
    def test_checkpoints_cover_whole_stream(self):
        stream = stream_from_rows("R", [(i,) for i in range(37)])
        points = checkpoints(stream, parts=10)
        assert len(points) == 10
        assert points[-1] == 37
        assert all(points[i] <= points[i + 1] for i in range(9))

    def test_checkpoints_empty_stream(self):
        assert checkpoints([], parts=4) == []

    def test_checkpoints_invalid_parts(self):
        with pytest.raises(ValueError):
            checkpoints([], parts=0)
