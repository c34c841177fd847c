"""Tests for the classic and skip-based reservoir samplers (Section 3.1).

Li's Algorithm L is the skip-based reservoir with an always-true predicate:
one :class:`BatchedPredicateReservoir` run per stream.
"""

import math
import random
from collections import Counter

import pytest

from repro.core.batch_reservoir import BatchedPredicateReservoir
from repro.core.reservoir import ReservoirSampler, geometric_skip
from repro.core.skippable import ListBatch


def algorithm_l(k, rng=None):
    """Algorithm L: the skip-based reservoir where every item is real."""
    return BatchedPredicateReservoir(k, predicate=lambda item: True, rng=rng)


class TestGeometricSkip:
    def test_rejects_bad_parameter(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            geometric_skip(0.0, rng)
        with pytest.raises(ValueError):
            geometric_skip(1.5, rng)

    def test_w_one_always_zero(self):
        rng = random.Random(0)
        assert all(geometric_skip(1.0, rng) == 0 for _ in range(50))

    def test_mean_matches_geometric(self):
        rng = random.Random(1)
        w = 0.25
        draws = [geometric_skip(w, rng) for _ in range(20000)]
        mean = sum(draws) / len(draws)
        # E[failures before success] = (1 - w) / w = 3.
        assert abs(mean - 3.0) < 0.2


class TestReservoirSampler:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            ReservoirSampler(0)

    def test_keeps_everything_when_fewer_than_k(self):
        sampler = ReservoirSampler(10, random.Random(0))
        sampler.process_many(range(4))
        assert sorted(sampler.sample) == [0, 1, 2, 3]

    def test_sample_size_is_k(self):
        sampler = ReservoirSampler(5, random.Random(0))
        sampler.process_many(range(100))
        assert len(sampler) == 5
        assert sampler.items_seen == 100

    def test_sample_is_subset_without_replacement(self):
        sampler = ReservoirSampler(10, random.Random(3))
        sampler.process_many(range(50))
        assert len(set(sampler.sample)) == 10
        assert all(0 <= item < 50 for item in sampler.sample)

    def test_uniform_inclusion_frequencies(self):
        trials = 3000
        universe, k = 12, 3
        counts = Counter()
        for seed in range(trials):
            sampler = ReservoirSampler(k, random.Random(seed))
            sampler.process_many(range(universe))
            counts.update(sampler.sample)
        expected = trials * k / universe
        for item in range(universe):
            assert abs(counts[item] - expected) < 5 * math.sqrt(expected)


class TestSkipReservoirSampler:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            algorithm_l(0)

    def test_small_stream_kept_entirely(self):
        sampler = algorithm_l(10, random.Random(0))
        sampler.process_batch(ListBatch(range(5)))
        assert sorted(sampler.sample) == [0, 1, 2, 3, 4]

    def test_examines_far_fewer_items_than_stream_length(self):
        sampler = algorithm_l(20, random.Random(1))
        sampler.process_batch(ListBatch(range(100_000)))
        assert len(sampler) == 20
        # O(k log(N/k)) examined items: generously bounded here.
        assert sampler.items_examined < 5000

    def test_multiple_runs_continue_the_same_stream(self):
        sampler = algorithm_l(5, random.Random(2))
        sampler.process_batch(ListBatch(range(0, 50)))
        sampler.process_batch(ListBatch(range(50, 100)))
        assert len(sampler) == 5
        assert all(0 <= item < 100 for item in sampler.sample)

    def test_uniform_inclusion_frequencies(self):
        trials = 3000
        universe, k = 15, 3
        counts = Counter()
        for seed in range(trials):
            sampler = algorithm_l(k, random.Random(seed))
            sampler.process_batch(ListBatch(range(universe)))
            counts.update(sampler.sample)
        expected = trials * k / universe
        for item in range(universe):
            assert abs(counts[item] - expected) < 5 * math.sqrt(expected)

    def test_matches_classic_reservoir_distribution_roughly(self):
        # Both samplers should include late items with probability ~k/N.
        trials, universe, k = 2000, 40, 4
        skip_hits = 0
        classic_hits = 0
        for seed in range(trials):
            skip_sampler = algorithm_l(k, random.Random(seed))
            skip_sampler.process_batch(ListBatch(range(universe)))
            skip_hits += universe - 1 in skip_sampler.sample
            classic = ReservoirSampler(k, random.Random(seed + 999_983))
            classic.process_many(range(universe))
            classic_hits += universe - 1 in classic.sample
        assert abs(skip_hits - classic_hits) < 0.25 * trials * k / universe + 60
