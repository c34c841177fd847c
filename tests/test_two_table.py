"""Tests for the exact two-table index (Section 4.1)."""

import random
from collections import Counter

import pytest

from repro.index.two_table import TwoTableIndex
from repro.relational import Database, JoinQuery, delta_results, join_size

from tests.conftest import make_edges, make_graph_stream, materialize_batch
from tests.oracles import result_key


class TestConstruction:
    def test_rejects_wrong_arity(self, line3_query):
        with pytest.raises(ValueError):
            TwoTableIndex(line3_query)

    def test_rejects_cross_product(self):
        query = JoinQuery.from_spec("cross", {"A": ["x"], "B": ["y"]})
        with pytest.raises(ValueError):
            TwoTableIndex(query)


class TestExactness:
    def test_total_weight_is_exact_join_size(self, two_table_query):
        edges = make_edges(6, 18, seed=71)
        stream = make_graph_stream(two_table_query, edges, seed=72)
        index = TwoTableIndex(two_table_query)
        shadow = Database(two_table_query)
        for item in stream:
            index.insert(item.relation, item.row)
            shadow.insert(item.relation, item.row)
        assert index.total_weight() == join_size(two_table_query, shadow)

    def test_delta_batches_are_exact_and_dense(self, two_table_query):
        edges = make_edges(6, 18, seed=73)
        stream = make_graph_stream(two_table_query, edges, seed=74)
        index = TwoTableIndex(two_table_query)
        shadow = Database(two_table_query)
        for item in stream:
            if not index.insert(item.relation, item.row):
                continue
            shadow.insert(item.relation, item.row)
            batch = index.delta_batch(item.relation, item.row)
            real = materialize_batch(batch)
            assert len(real) == len(batch)  # 1-dense: no dummies at all
            got = Counter(result_key(res) for res in real)
            expected = Counter(
                result_key(res)
                for res in delta_results(two_table_query, shadow, item.relation, item.row)
            )
            assert got == expected

    def test_duplicates_ignored(self, two_table_query):
        index = TwoTableIndex(two_table_query)
        assert index.insert("R1", (1, 2)) is True
        assert index.insert("R1", (1, 2)) is False
        assert index.duplicates_ignored == 1
        assert index.size == 1


class TestSampling:
    def test_sample_none_on_empty_join(self, two_table_query):
        index = TwoTableIndex(two_table_query)
        index.insert("R1", (1, 2))
        assert index.sample(random.Random(0)) is None

    def test_sampling_uniform(self, two_table_query):
        index = TwoTableIndex(two_table_query)
        for i in range(4):
            index.insert("R1", (i, i % 2))
        for j in range(4):
            index.insert("R2", (j % 2, j))
        shadow = Database.from_dict(
            two_table_query,
            {"R1": [(i, i % 2) for i in range(4)], "R2": [(j % 2, j) for j in range(4)]},
        )
        from repro.relational import join_results

        universe = {result_key(res) for res in join_results(two_table_query, shadow)}
        rng = random.Random(5)
        counts = Counter(result_key(index.sample(rng)) for _ in range(4000))
        assert set(counts) <= universe
        expected = 4000 / len(universe)
        for key in universe:
            assert abs(counts[key] - expected) < 6 * (expected ** 0.5) + 10
