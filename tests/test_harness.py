"""Tests for the benchmark harness and report formatting."""

import random

import pytest

from repro.bench.harness import (
    compare_samplers,
    per_insert_times,
    percentile,
    progress_run,
    run_sampler,
    run_with_timeout,
    speedup,
)
from repro.bench.reporting import format_series, format_table, format_value
from repro.core.reservoir_join import ReservoirJoin
from tests.conftest import make_edges, make_graph_stream


@pytest.fixture
def small_stream(line3_query):
    return make_graph_stream(line3_query, make_edges(5, 12, seed=301), seed=302)


class TestHarness:
    def test_run_sampler_result(self, line3_query, small_stream):
        sampler = ReservoirJoin(line3_query, 5, rng=random.Random(0))
        result = run_sampler("RSJoin", sampler, small_stream)
        assert result.name == "RSJoin"
        assert result.tuples_processed == len(small_stream)
        assert result.elapsed_seconds >= 0
        row = result.row()
        assert row["algorithm"] == "RSJoin"
        assert row["tuples"] == len(small_stream)

    def test_run_with_timeout_completes(self, line3_query, small_stream):
        sampler = ReservoirJoin(line3_query, 5, rng=random.Random(0))
        result = run_with_timeout("RSJoin", sampler, small_stream, timeout_seconds=60.0)
        assert result is not None

    def test_run_with_timeout_aborts(self, line3_query):
        stream = make_graph_stream(line3_query, make_edges(12, 80, seed=303), seed=304)

        class Slow:
            def insert(self, relation, row):
                import time

                time.sleep(0.001)

        assert run_with_timeout("slow", Slow(), stream, timeout_seconds=0.01) is None

    def test_per_insert_times(self, line3_query, small_stream):
        sampler = ReservoirJoin(line3_query, 5, rng=random.Random(0))
        latencies = per_insert_times(sampler, small_stream)
        assert len(latencies) == len(small_stream)
        assert all(latency >= 0 for latency in latencies)

    def test_progress_run_checkpoints(self, line3_query, small_stream):
        sampler = ReservoirJoin(line3_query, 5, rng=random.Random(0))
        points = progress_run(sampler, small_stream, parts=5, measure_memory=True)
        assert len(points) == 5
        assert points[-1].fraction == pytest.approx(1.0)
        assert all(
            earlier.elapsed_seconds <= later.elapsed_seconds
            for earlier, later in zip(points, points[1:])
        )
        assert all(point.memory_bytes > 0 for point in points)

    def test_progress_run_empty_stream(self, line3_query):
        sampler = ReservoirJoin(line3_query, 5, rng=random.Random(0))
        assert progress_run(sampler, [], parts=5) == []

    def test_compare_samplers(self, line3_query, small_stream):
        factories = {
            "a": lambda: ReservoirJoin(line3_query, 5, rng=random.Random(1)),
            "b": lambda: ReservoirJoin(line3_query, 5, rng=random.Random(2)),
        }
        results = compare_samplers(factories, small_stream)
        assert [result.name for result in results] == ["a", "b"]

    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 0.0) == 1
        assert percentile(values, 1.0) == 100
        assert percentile(values, 0.5) == 50
        # Nearest rank: the smallest value with half the values at or below.
        assert percentile([1, 2, 3, 4], 0.5) == 2
        assert percentile([1, 2, 3, 4], 0.51) == 3
        assert percentile([3.0], 0.99) == 3.0
        assert percentile([4, 1, 3, 2], 0.0) == 1
        assert percentile([4, 1, 3, 2], 1.0) == 4
        assert percentile(list(range(1, 101)), 0.95) == 95
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile(values, 1.5)

    def test_speedup(self):
        assert speedup(10.0, 2.0) == pytest.approx(5.0)
        assert speedup(10.0, 0.0) == float("inf")


class TestReporting:
    def test_format_value(self):
        assert format_value(float("inf")) == "DNF"
        assert format_value(0.5) == "0.5"
        assert format_value(12) == "12"
        assert "e" in format_value(1.23e9)

    def test_format_table_alignment(self):
        rows = [
            {"algorithm": "RSJoin", "seconds": 1.25},
            {"algorithm": "SJoin", "seconds": 12.5, "extra": "x"},
        ]
        text = format_table(rows, title="Figure 5")
        lines = text.splitlines()
        assert lines[0] == "Figure 5"
        assert "algorithm" in lines[1] and "extra" in lines[1]
        assert len(lines) == 2 + 1 + len(rows)

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_series(self):
        text = format_series(
            {"RSJoin": [1.0, 2.0], "SJoin": [3.0, 4.0]},
            x_values=[10, 20],
            x_label="N",
            title="Figure 7",
        )
        assert "Figure 7" in text
        assert "N" in text.splitlines()[1]
        assert len(text.splitlines()) == 2 + 1 + 2
