"""Tests for reservoir sampling with a predicate (Algorithm 1).

Algorithm 1 over a stream is one ``process_batch`` of the skip-based
reservoir over the stream as a single :class:`ListBatch`; consecutive
batches continue the same logical stream.
"""

import hashlib
import math
import random
from collections import Counter

import pytest

from repro.core.batch_reservoir import BatchedPredicateReservoir
from repro.core.skippable import ListBatch
from repro.workloads.strings import EditDistancePredicate, string_stream

from tests.oracles import expected_stop_bound


def even(value: int) -> bool:
    return value % 2 == 0


class TestBasics:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            BatchedPredicateReservoir(0)

    def test_only_real_items_sampled(self):
        sampler = BatchedPredicateReservoir(10, predicate=even, rng=random.Random(0))
        sampler.process_batch(ListBatch(range(1000)))
        assert len(sampler) == 10
        assert all(even(item) for item in sampler.sample)

    def test_fewer_real_items_than_k(self):
        sampler = BatchedPredicateReservoir(50, predicate=even, rng=random.Random(0))
        sampler.process_batch(ListBatch(range(20)))
        assert sorted(sampler.sample) == [0, 2, 4, 6, 8, 10, 12, 14, 16, 18]
        assert len(sampler) < sampler.k

    def test_no_real_items(self):
        sampler = BatchedPredicateReservoir(5, predicate=lambda item: False, rng=random.Random(0))
        sampler.process_batch(ListBatch(range(100)))
        assert sampler.sample == []
        # Nothing can be skipped when the reservoir never fills.
        assert sampler.items_examined == 100

    def test_all_items_real_reduces_to_classic(self):
        sampler = BatchedPredicateReservoir(5, predicate=lambda item: True, rng=random.Random(1))
        sampler.process_batch(ListBatch(range(10_000)))
        assert len(sampler) == 5
        assert sampler.items_examined < 1000  # skipping is active

    def test_run_can_be_resumed_across_streams(self):
        sampler = BatchedPredicateReservoir(4, predicate=even, rng=random.Random(3))
        sampler.process_batch(ListBatch(range(0, 100)))
        sampler.process_batch(ListBatch(range(100, 200)))
        assert len(sampler) == 4
        assert all(even(item) and 0 <= item < 200 for item in sampler.sample)


class TestComplexity:
    def test_stop_count_close_to_instance_optimal_bound(self):
        # 1/10-dense stream: every 10th item is real.
        items = list(range(5000))
        predicate = lambda value: value % 10 == 0
        real_prefix = []
        reals = 0
        for value in items:
            real_prefix.append(reals)
            if predicate(value):
                reals += 1
        bound = expected_stop_bound(real_prefix, k=20)
        stops = []
        for seed in range(20):
            sampler = BatchedPredicateReservoir(20, predicate=predicate, rng=random.Random(seed))
            sampler.process_batch(ListBatch(items))
            stops.append(sampler.items_examined)
        average = sum(stops) / len(stops)
        # The measured number of stops should be within a small constant of
        # the instance-optimal bound of Theorems 3.2/3.3 (and well below N).
        assert average < 4 * bound
        assert average < len(items) / 2

    def test_sparser_streams_examine_more_items(self):
        def run(density: float) -> int:
            period = max(1, int(round(1 / density)))
            items = list(range(4000))
            predicate = lambda value: value % period == 0
            sampler = BatchedPredicateReservoir(10, predicate=predicate, rng=random.Random(7))
            sampler.process_batch(ListBatch(items))
            return sampler.items_examined

        dense = run(1.0)
        medium = run(0.1)
        sparse = run(0.01)
        assert dense < medium < sparse


class TestUniformity:
    def test_uniform_over_real_items(self):
        trials = 4000
        k = 3
        items = list(range(30))  # 15 real (even), 15 dummy
        counts = Counter()
        for seed in range(trials):
            sampler = BatchedPredicateReservoir(k, predicate=even, rng=random.Random(seed))
            sampler.process_batch(ListBatch(items))
            counts.update(sampler.sample)
        real_items = [value for value in items if even(value)]
        expected = trials * k / len(real_items)
        assert set(counts) <= set(real_items)
        for item in real_items:
            assert abs(counts[item] - expected) < 5 * math.sqrt(expected) + 5

    def test_late_real_items_not_missed_in_sparse_stream(self):
        # A single real item at the very end must always be sampled.
        items = [1] * 500 + [2]
        predicate = even
        for seed in range(25):
            sampler = BatchedPredicateReservoir(3, predicate=predicate, rng=random.Random(seed))
            sampler.process_batch(ListBatch(items))
            assert sampler.sample == [2]


class TestExpectedStopBound:
    def test_all_real(self):
        # r_i = i - 1, so the bound telescopes to roughly k(1 + ln(N/k)).
        n, k = 1000, 10
        bound = expected_stop_bound(list(range(n)), k)
        assert k <= bound <= k * (2 + math.log(n / k))

    def test_all_dummy(self):
        assert expected_stop_bound([0] * 50, 5) == 50


class TestPinnedToAlgorithmOne:
    def test_fig13_stream_reproduces_the_recorded_run(self):
        """Fig 13's 0.3-dense stream reproduces a run recorded with the
        retired stand-alone Algorithm 1 loop: same sample, same number of
        examined items, same number of edit-distance evaluations."""
        seed = 2024  # the figure scripts' SEED
        items, query_string, _ = string_stream(2500, 0.3, random.Random(seed + 13))
        predicate = EditDistancePredicate(query_string, 8)
        sampler = BatchedPredicateReservoir(50, predicate=predicate, rng=random.Random(seed))
        sampler.process_batch(ListBatch(items))
        digest = hashlib.sha256(repr(sampler.sample).encode()).hexdigest()
        assert digest == "090e73f2017d505ac0c2ca7e4097015000bf9c1665cab6ad8a935d73265fe82f"
        assert sampler.items_examined == 626
        assert predicate.evaluations == 626
        assert sampler.real_stops == 186
