"""Tests for the symmetric-hash-join and naive baselines."""

import random

from repro.baselines.symmetric import SymmetricHashJoinSampler
from repro.relational import Database, join_size

from tests.conftest import make_edges, make_graph_stream
from tests.naive import NaiveRecomputeSampler
from tests.oracles import ground_truth, result_key, uniformity_p_value


class TestSymmetricHashJoinSampler:
    def test_total_join_size_exact(self, line3_query):
        edges = make_edges(5, 14, seed=81)
        stream = make_graph_stream(line3_query, edges, seed=82)
        sampler = SymmetricHashJoinSampler(line3_query, 10, random.Random(0))
        shadow = Database(line3_query)
        for item in stream:
            sampler.insert(item.relation, item.row)
            shadow.insert(item.relation, item.row)
        assert sampler.total_join_size == join_size(line3_query, shadow)

    def test_small_join_collected_entirely(self, star3_query):
        edges = [(0, 1), (0, 2), (0, 3)]
        stream = make_graph_stream(star3_query, edges, seed=83)
        sampler = SymmetricHashJoinSampler(star3_query, 100, random.Random(1))
        sampler.process(stream)
        truth = {result_key(r) for r in ground_truth(star3_query, stream)}
        assert {result_key(r) for r in sampler.sample} == truth

    def test_duplicates_ignored(self, two_table_query):
        sampler = SymmetricHashJoinSampler(two_table_query, 10, random.Random(2))
        sampler.insert("R1", (1, 2))
        sampler.insert("R1", (1, 2))
        assert sampler.duplicates_ignored == 1

    def test_uniformity(self, two_table_query):
        edges = make_edges(4, 9, seed=84)
        stream = make_graph_stream(two_table_query, edges, seed=85)
        universe = ground_truth(two_table_query, stream)
        assert len(universe) > 3

        def run(seed):
            sampler = SymmetricHashJoinSampler(two_table_query, 3, random.Random(seed))
            sampler.process(stream)
            return sampler.sample

        assert uniformity_p_value(run, universe, trials=400, sample_size=3) > 1e-3

    def test_statistics(self, two_table_query):
        sampler = SymmetricHashJoinSampler(two_table_query, 5, random.Random(3))
        sampler.insert("R1", (1, 2))
        sampler.insert("R2", (2, 3))
        stats = sampler.statistics()
        assert stats["total_join_size"] == 1
        assert stats["sample_size"] == 1


class TestNaiveRecomputeSampler:
    def test_matches_ground_truth_support(self, two_table_query):
        edges = make_edges(4, 8, seed=86)
        stream = make_graph_stream(two_table_query, edges, seed=87)
        sampler = NaiveRecomputeSampler(two_table_query, 1000, random.Random(4))
        sampler.process(stream)
        truth = {result_key(r) for r in ground_truth(two_table_query, stream)}
        assert {result_key(r) for r in sampler.sample} == truth
        assert sampler.last_join_size == len(truth)

    def test_sample_capped_at_k(self, two_table_query):
        edges = make_edges(4, 10, seed=88)
        stream = make_graph_stream(two_table_query, edges, seed=89)
        sampler = NaiveRecomputeSampler(two_table_query, 2, random.Random(5))
        sampler.process(stream)
        assert sampler.sample_size <= 2

    def test_recomputation_counter(self, two_table_query):
        sampler = NaiveRecomputeSampler(two_table_query, 5, random.Random(6))
        sampler.insert("R1", (1, 2))
        sampler.insert("R1", (1, 2))  # duplicate: no recomputation
        assert sampler.recomputations == 1

    def test_agreement_with_symmetric_baseline(self, line3_query):
        edges = make_edges(4, 8, seed=90)
        stream = make_graph_stream(line3_query, edges, seed=91)
        naive = NaiveRecomputeSampler(line3_query, 10_000, random.Random(7))
        symmetric = SymmetricHashJoinSampler(line3_query, 10_000, random.Random(8))
        naive.process(stream)
        symmetric.process(stream)
        assert {result_key(r) for r in naive.sample} == {
            result_key(r) for r in symmetric.sample
        }
