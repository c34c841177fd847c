"""Tests for the uniformity checker and memory accounting."""

import random
from collections import Counter

import pytest

from repro.stats.memory import deep_sizeof, megabytes, sampler_memory_bytes

from tests.oracles import (
    chi_square_uniformity,
    inclusion_counts,
    max_abs_inclusion_deviation,
    result_key,
    uniformity_p_value,
)


class TestResultKey:
    def test_order_independent(self):
        assert result_key({"a": 1, "b": 2}) == result_key({"b": 2, "a": 1})

    def test_hashable(self):
        assert hash(result_key({"a": 1})) == hash((("a", 1),))


class TestInclusionCounts:
    def test_counts_per_trial_membership(self):
        trials = [
            [{"a": 1}, {"a": 2}],
            [{"a": 1}],
        ]
        counts = inclusion_counts(trials)
        assert counts[result_key({"a": 1})] == 2
        assert counts[result_key({"a": 2})] == 1

    def test_duplicates_within_a_trial_count_once(self):
        counts = inclusion_counts([[{"a": 1}, {"a": 1}]])
        assert counts[result_key({"a": 1})] == 1


class TestChiSquare:
    def test_uniform_counts_have_high_p_value(self):
        rng = random.Random(0)
        universe, trials, k = 20, 2000, 4
        counts = Counter()
        for _ in range(trials):
            for item in rng.sample(range(universe), k):
                counts[(item,)] += 1
        _, p_value = chi_square_uniformity(counts, universe, trials, k)
        assert p_value > 0.01

    def test_skewed_counts_have_low_p_value(self):
        universe, trials, k = 20, 2000, 4
        counts = Counter({(0,): trials})  # one result always sampled
        for item in range(1, universe):
            counts[(item,)] = int(trials * k / universe / 2)
        _, p_value = chi_square_uniformity(counts, universe, trials, k)
        assert p_value < 1e-6

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            chi_square_uniformity(Counter(), 0, 10, 2)

    def test_deviation_measure(self):
        counts = Counter({(0,): 100, (1,): 50})
        deviation = max_abs_inclusion_deviation(counts, 2, 100, 1)
        assert deviation == pytest.approx(0.5)


class TestUniformityPValueWrapper:
    def test_flags_results_outside_universe(self):
        universe = [{"a": 1}]

        def run(seed):
            return [{"a": 2}]

        with pytest.raises(AssertionError):
            uniformity_p_value(run, universe, trials=3, sample_size=1)

    def test_perfect_sampler_passes(self):
        universe = [{"a": value} for value in range(10)]

        def run(seed):
            rng = random.Random(seed)
            return rng.sample(universe, 3)

        assert uniformity_p_value(run, universe, trials=500, sample_size=3) > 0.01


class TestMemoryAccounting:
    def test_deep_sizeof_grows_with_content(self):
        small = {"a": list(range(10))}
        large = {"a": list(range(10_000))}
        assert deep_sizeof(large) > deep_sizeof(small)

    def test_shared_objects_counted_once(self):
        shared = list(range(1000))
        container = [shared, shared]
        assert deep_sizeof(container) < 2 * deep_sizeof(shared) + 1000

    def test_handles_slots_and_dict_objects(self):
        class WithSlots:
            __slots__ = ("payload",)

            def __init__(self):
                self.payload = list(range(100))

        class WithDict:
            def __init__(self):
                self.payload = list(range(100))

        assert deep_sizeof(WithSlots()) > 100
        assert deep_sizeof(WithDict()) > 100

    def test_sampler_memory_grows_with_input(self, line3_query):
        import random as _random

        from repro.core.reservoir_join import ReservoirJoin
        from tests.conftest import make_edges, make_graph_stream

        small = ReservoirJoin(line3_query, 5, rng=_random.Random(0))
        large = ReservoirJoin(line3_query, 5, rng=_random.Random(0))
        for item in make_graph_stream(line3_query, make_edges(5, 5, 1), 2):
            small.insert(item.relation, item.row)
        for item in make_graph_stream(line3_query, make_edges(12, 60, 1), 2):
            large.insert(item.relation, item.row)
        assert sampler_memory_bytes(large) > sampler_memory_bytes(small)

    def test_megabytes(self):
        assert megabytes(1024 * 1024) == pytest.approx(1.0)
