"""Tests for the combined dynamic index (Theorem 4.2)."""

import math
import random
from collections import Counter

import pytest

from repro.core.reservoir_join import ReservoirJoin
from repro.index.buckets import BucketFamily
from repro.index.dynamic_index import DynamicJoinIndex
from repro.relational import JoinQuery, join_size
from repro.workloads.graph import line_query, star_query, triangle_query

from tests.conftest import make_edges, make_graph_stream, random_stream
from tests.oracles import delta_batch_items, delta_batch_size, result_key, validate_index


class TestConstruction:
    def test_rejects_cyclic_queries(self):
        with pytest.raises(ValueError, match="is cyclic; DynamicJoinIndex only supports"):
            DynamicJoinIndex(triangle_query())

    def test_one_tree_per_relation(self, line3_query):
        index = DynamicJoinIndex(line3_query)
        assert set(index.trees) == set(line3_query.relation_names)


class TestInsertion:
    def test_duplicates_ignored(self, line3_query):
        index = DynamicJoinIndex(line3_query)
        assert index.insert("R1", (1, 2)) is True
        assert index.insert("R1", (1, 2)) is False
        assert index.size == 1
        assert index.duplicates_ignored == 1

    def test_size_tracks_inserts(self, line3_query):
        index = DynamicJoinIndex(line3_query)
        index.insert("R1", (1, 2))
        index.insert("R2", (2, 3))
        assert index.size == 2
        assert index.tuples_inserted == 2


class TestDeltaBatches:
    def test_batch_matches_ground_truth_over_stream(self, star3_query):
        from repro.relational import Database, delta_results

        edges = make_edges(4, 10, seed=61)
        stream = make_graph_stream(star3_query, edges, seed=62)
        index = DynamicJoinIndex(star3_query)
        shadow = Database(star3_query)
        for item in stream:
            if not index.insert(item.relation, item.row):
                continue
            shadow.insert(item.relation, item.row)
            got = Counter(
                result_key(res)
                for res in delta_batch_items(index.trees[item.relation], item.row)
                if res is not None
            )
            expected = Counter(
                result_key(res)
                for res in delta_results(star3_query, shadow, item.relation, item.row)
            )
            assert got == expected

    def test_batch_size_zero_when_no_partner(self, two_table_query):
        index = DynamicJoinIndex(two_table_query)
        index.insert("R1", (1, 2))
        assert delta_batch_size(index, "R1", (1, 2)) == 0

    def test_bulk_batch_sizes_match_per_row(self, line3_query):
        index = DynamicJoinIndex(line3_query)
        rng = random.Random(5)
        rows_by_relation = {
            name: [(rng.randrange(4), rng.randrange(4)) for _ in range(12)]
            for name in line3_query.relation_names
        }
        for name, rows in rows_by_relation.items():
            index.insert_rows(name, rows)
        for name in line3_query.relation_names:
            inserted = [tuple(r) for r in rows_by_relation[name]]
            assert index.trees[name].delta_batch_sizes(inserted) == [
                delta_batch_size(index, name, row) for row in inserted
            ]


class TestFullQuerySampling:
    def replay(self, query, stream):
        index = DynamicJoinIndex(query, maintain_root=True)
        for item in stream:
            index.insert(item.relation, item.row)
        return index

    def test_total_weight_upper_bounds_join_size(self, line3_query):
        from repro.relational import Database

        edges = make_edges(5, 15, seed=63)
        stream = make_graph_stream(line3_query, edges, seed=64)
        index = self.replay(line3_query, stream)
        shadow = Database(line3_query)
        for item in stream:
            shadow.insert(item.relation, item.row)
        truth = join_size(line3_query, shadow)
        assert index.total_weight() >= truth

    def test_retrieve_positions_cover_all_results(self, two_table_query):
        index = DynamicJoinIndex(two_table_query, maintain_root=True)
        for row in [(1, 10), (2, 10), (3, 20)]:
            index.insert("R1", row)
        for row in [(10, 5), (20, 6)]:
            index.insert("R2", row)
        found = set()
        for position in range(index.total_weight()):
            result = index.retrieve(position)
            if result is not None:
                found.add(result_key(result))
        assert len(found) == 3  # (1,10,5), (2,10,5), (3,20,6)

    def test_validate_after_longer_run(self):
        query = line_query(4)
        edges = make_edges(4, 12, seed=67)
        stream = make_graph_stream(query, edges, seed=68)
        index = self.replay(query, stream)
        validate_index(index)

    @pytest.mark.parametrize("maintain_root", [False, True])
    def test_validate_leaves_relation_indexes_as_they_were(self, maintain_root):
        # The recount scans rows: a hash index it built would stay on the
        # relation, and every later insert would pay to maintain it.
        query = line_query(3)
        index = DynamicJoinIndex(query, maintain_root=maintain_root)
        for item in make_graph_stream(query, make_edges(5, 15, seed=71), seed=72):
            index.insert(item.relation, item.row)

        def index_keys():
            return {name: sorted(index.database[name]._indexes) for name in query.relation_names}

        before = index_keys()
        validate_index(index)
        assert index_keys() == before

    @pytest.mark.parametrize("length,expected,per_rooting", [(3, 63, 63), (4, 139, 178)])
    def test_propagations_count_each_directed_edge_once(self, length, expected, per_rooting):
        # ``per_rooting`` is what one counter per rooted tree summed to when
        # every rooting kept its own families.  On line-3 no two rootings
        # pushed a change into the same edge; on line-4 the rootings at R1
        # and R2 both pushed R4's changes into R2 -> R3.
        query = line_query(length)
        edges = make_edges(5, 15, seed=69)
        stream = make_graph_stream(query, edges, seed=70)
        index = self.replay(query, stream)
        assert index.propagations == expected
        assert expected == per_rooting if length == 3 else expected < per_rooting


class TestRoundTrip:
    """Per-row inserts then per-row deletes of every row leave no trace."""

    @pytest.mark.parametrize("grouping", [False, True])
    def test_insert_then_delete_everything(self, grouping):
        query = JoinQuery.from_spec(
            "wide", {"Ra": ["x", "y"], "Rb": ["y", "z", "w"], "Rc": ["w", "u"]}
        )
        rng = random.Random(31)
        rows = []
        for position in range(90):
            relation = query.relation_names[position % 3]
            arity = query.relation(relation).arity
            rows.append((relation, tuple(rng.randrange(3) for _ in range(arity))))
        index = DynamicJoinIndex(query, grouping=grouping, maintain_root=True)
        inserted = []
        for relation, row in rows:
            if index.insert(relation, row):
                inserted.append((relation, row))
            validate_index(index)
        assert index.total_weight() > 0
        rng.shuffle(inserted)
        for relation, row in inserted:
            assert index.delete(relation, row)
            validate_index(index)
        assert index.size == 0
        assert index.total_weight() == 0
        assert index.families and all(not families for families in index.families.values())


class TestCountedIndexUpdate:
    """IndexUpdate's re-weights per tuple stay under a stated constant.

    Theorem 4.2 bounds IndexUpdate by O(log N) amortised per insert: a
    family's ``c̃nt`` is a doubling counter (Lemma 4.4), so an insert
    re-weights an entity one level up only when a count crosses a power of
    two.  Counted re-weights are exact under a seed, so they can gate where
    a wall-clock time cannot.  Each run feeds N = 2,000 uniformly random rows
    (``random_stream``, seed 1, domain 2√N) to a ``ReservoirJoin`` with
    k = 1,000 in chunks of 100, and counts :meth:`BucketFamily.reweight`
    calls through a wrapper.

    The constants are the per-tuple figures the index read at N = 2,000 in
    a sweep with these parameters when the test was written: line-3 2.22,
    star-4 3.10.  On this stream it reads 2.18 and 3.02.  Over seeds 0–19 of the same
    generator, line-3 reads 2.05–2.22 and star-4 3.02–3.26, so a constant
    holds for one seeded stream, not for every stream at this N.  An index
    that re-weights each entity twice reads more than 4 and 6.
    """

    N = 2_000
    CONSTANTS = {"line-3": 2.22, "star-4": 3.10}

    @pytest.mark.parametrize("query", [line_query(3), star_query(4)], ids=lambda query: query.name)
    def test_reweights_per_tuple_under_the_stated_constant(self, query, monkeypatch):
        calls = []
        reweight = BucketFamily.reweight

        def counting_reweight(family, entity, old_weight, new_weight):
            calls.append(entity)
            reweight(family, entity, old_weight, new_weight)

        monkeypatch.setattr(BucketFamily, "reweight", counting_reweight)
        stream = random_stream(query, random.Random(1), self.N, round(2 * math.sqrt(self.N)))
        sampler = ReservoirJoin(query, 1_000, rng=random.Random(1))
        for start in range(0, self.N, 100):
            sampler.insert_batch(stream[start:start + 100])
        assert sampler.index.size > 0
        assert len(calls) / self.N <= self.CONSTANTS[query.name]
