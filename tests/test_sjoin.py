"""Tests for the SJoin baseline (exact-count index + reservoir)."""

import random

import pytest

from repro.baselines.sjoin import ExactTreeIndex, SJoin
from repro.relational import Database, delta_results, join_size
from repro.relational.jointree import JoinTree
from repro.workloads import tpcds
from repro.workloads.graph import line_query, triangle_query
from collections import Counter

from tests.conftest import make_edges, make_graph_stream
from tests.oracles import delta_batch_items, ground_truth, result_key, uniformity_p_value


def replay(query, stream, k, seed, **kwargs):
    sampler = SJoin(query, k, rng=random.Random(seed), **kwargs)
    for item in stream:
        sampler.insert(item.relation, item.row)
    return sampler


class TestExactTreeIndex:
    def test_delta_batches_are_exact(self, line3_query):
        edges = make_edges(5, 12, seed=31)
        stream = make_graph_stream(line3_query, edges, seed=32)
        database = Database(line3_query)
        tree = JoinTree(line3_query)
        indexes = {
            name: ExactTreeIndex(tree.rooted_at(name), database)
            for name in line3_query.relation_names
        }
        for item in stream:
            if not database.insert(item.relation, item.row):
                continue
            for index in indexes.values():
                index.insert_row(item.relation, item.row)
            real = delta_batch_items(indexes[item.relation], item.row)
            # Exact: every position corresponds to a real delta result.
            assert None not in real
            got = Counter(result_key(r) for r in real)
            expected = Counter(
                result_key(r)
                for r in delta_results(line3_query, database, item.relation, item.row)
            )
            assert got == expected


class TestSJoinSampler:
    def test_rejects_cyclic(self):
        with pytest.raises(ValueError):
            SJoin(triangle_query(), 10)

    def test_total_join_size_is_exact(self, line3_query):
        edges = make_edges(5, 14, seed=33)
        stream = make_graph_stream(line3_query, edges, seed=34)
        sampler = replay(line3_query, stream, k=10, seed=35)
        shadow = Database(line3_query)
        for item in stream:
            shadow.insert(item.relation, item.row)
        assert sampler.total_join_size == join_size(line3_query, shadow)

    def test_small_join_collected_entirely(self, star3_query):
        edges = [(0, 1), (0, 2), (1, 3)]
        stream = make_graph_stream(star3_query, edges, seed=36)
        sampler = replay(star3_query, stream, k=50, seed=37)
        truth = {result_key(r) for r in ground_truth(star3_query, stream)}
        assert {result_key(r) for r in sampler.sample} == truth

    def test_uniformity(self, line3_query):
        edges = make_edges(4, 8, seed=38)
        stream = make_graph_stream(line3_query, edges, seed=39)
        universe = ground_truth(line3_query, stream)
        assert len(universe) > 4

        def run(seed):
            return replay(line3_query, stream, k=4, seed=seed).sample

        assert uniformity_p_value(run, universe, trials=300, sample_size=4) > 1e-3

    def test_same_sample_support_as_rsjoin(self, line3_query):
        """Both samplers draw from the same ground-truth universe."""
        from repro.core.reservoir_join import ReservoirJoin

        edges = make_edges(5, 12, seed=40)
        stream = make_graph_stream(line3_query, edges, seed=41)
        truth = {result_key(r) for r in ground_truth(line3_query, stream)}
        sjoin = replay(line3_query, stream, k=10_000, seed=42)
        rsjoin = ReservoirJoin(line3_query, 10_000, rng=random.Random(43))
        for item in stream:
            rsjoin.insert(item.relation, item.row)
        assert {result_key(r) for r in sjoin.sample} == truth
        assert {result_key(r) for r in rsjoin.sample} == truth

    def test_propagations_exceed_rsjoin_on_skewed_data(self):
        """SJoin's exact propagation does strictly more work than RSJoin's."""
        from repro.core.reservoir_join import ReservoirJoin

        query = line_query(3)
        # A skewed (star-like) graph: one hub with many spokes makes exact
        # counts change constantly.
        edges = [(0, i) for i in range(1, 40)] + [(i, 0) for i in range(1, 40)]
        stream = make_graph_stream(query, edges, seed=44)
        sjoin = replay(query, stream, k=10, seed=45)
        rsjoin = ReservoirJoin(query, 10, rng=random.Random(46))
        for item in stream:
            rsjoin.insert(item.relation, item.row)
        assert sjoin.propagations > rsjoin.propagations

    def test_foreign_key_variant(self):
        rng = random.Random(47)
        data = tpcds.generate(0.03, rng)
        query, stream = tpcds.qy_workload(data, rng)
        truth = {result_key(r) for r in ground_truth(query, stream)}
        sampler = replay(query, stream, k=10_000, seed=48, foreign_key=True)
        assert {result_key(r) for r in sampler.sample} == truth

    def test_statistics_shape(self, line3_query):
        edges = make_edges(4, 8, seed=49)
        stream = make_graph_stream(line3_query, edges, seed=50)
        sampler = replay(line3_query, stream, k=5, seed=51)
        stats = sampler.statistics()
        assert stats["tuples_processed"] == len(stream)
        assert stats["sample_size"] == sampler.sample_size
