"""Tests for the foreign-key combination optimisation (Section 4.4)."""

import random

import pytest

from repro.index.foreign_key import ForeignKeyCombiner
from repro.relational import Database, JoinQuery, StreamTuple, join_size, join_results
from repro.workloads import tpcds

from tests.oracles import result_key


@pytest.fixture
def fk_query():
    """Example 4.6-style chain with primary keys on the dimension tables."""
    return JoinQuery.from_spec(
        "fk-chain",
        {
            "fact": ["a", "b"],
            "dim1": ["b", "c"],
            "dim2": ["c", "d"],
        },
        keys={"dim1": ["b"], "dim2": ["c"]},
    )


class TestRewriting:
    def test_chain_collapses_to_single_relation(self, fk_query):
        combiner = ForeignKeyCombiner(fk_query)
        assert combiner.is_effective
        assert len(combiner.groups) == 1
        rewritten = combiner.rewritten_query
        assert len(rewritten.relations) == 1
        assert set(rewritten.relations[0].attrs) == {"a", "b", "c", "d"}

    def test_no_keys_means_no_effect(self, line3_query):
        combiner = ForeignKeyCombiner(line3_query)
        assert not combiner.is_effective
        assert combiner.rewritten_query.relation_names == line3_query.relation_names

    def test_non_key_join_not_combined(self):
        query = JoinQuery.from_spec(
            "partial",
            {"A": ["x", "y"], "B": ["y", "z"], "C": ["z", "w"]},
            keys={"B": ["y"]},
        )
        combiner = ForeignKeyCombiner(query)
        assert combiner.is_effective
        names = sorted(group.name for group in combiner.groups)
        assert names == ["A+B", "C"]

    def test_example_4_6_collapses_fully(self):
        """Example 4.6: every join in the chain is a foreign-key join.

        The paper's illustration stops after forming S = R2⋈R3⋈R4 and
        T = R5⋈R6; our combiner applies the rule to a fixpoint, so the whole
        chain collapses into a single relation.  Either rewriting preserves
        the join (checked by the stream-rewriting tests); collapsing further
        only removes more propagation hops.
        """
        query = JoinQuery.from_spec(
            "example-4.6",
            {
                "R1": ["X", "Y"],
                "R2": ["Y", "Z"],
                "R3": ["Z", "W", "U"],
                "R4": ["U", "A"],
                "R5": ["A", "C"],
                "R6": ["C", "E"],
            },
            keys={"R1": ["X"], "R2": ["Y"], "R3": ["Z"], "R4": ["U"], "R5": ["A"], "R6": ["C"]},
        )
        combiner = ForeignKeyCombiner(query)
        assert len(combiner.groups) == 1

    def test_qz_keeps_non_key_joins_apart(self):
        """QZ collapses the key joins but keeps the two value joins separate."""
        combiner = ForeignKeyCombiner(tpcds.qz_query())
        names = sorted(group.name for group in combiner.groups)
        assert len(names) == 3
        # The income-band and category joins are not key joins and survive.
        rewritten = combiner.rewritten_query
        attrs = [set(schema.attrs) for schema in rewritten.relations]
        assert any("income_band" in a for a in attrs)
        assert any("category_id" in a for a in attrs)


class TestStreamRewriting:
    def stream_for(self, fk_query, seed):
        rng = random.Random(seed)
        stream = []
        for value in range(12):
            stream.append(StreamTuple("dim1", (value, value % 4)))
            stream.append(StreamTuple("dim2", (value % 4, value % 3)))
            stream.append(StreamTuple("fact", (rng.randrange(5), value)))
        rng.shuffle(stream)
        return stream

    def test_rewritten_stream_preserves_join(self, fk_query):
        stream = self.stream_for(fk_query, seed=5)
        combiner = ForeignKeyCombiner(fk_query)
        rewritten = combiner.rewrite_stream(stream)
        original_db = Database(fk_query)
        for item in stream:
            original_db.insert(item.relation, item.row)
        rewritten_db = Database(combiner.rewritten_query)
        for item in rewritten:
            rewritten_db.insert(item.relation, item.row)
        original = {result_key(r) for r in join_results(fk_query, original_db)}
        combined = {result_key(r) for r in join_results(combiner.rewritten_query, rewritten_db)}
        assert original == combined

    def test_fact_before_dimension_is_emitted_late(self, fk_query):
        combiner = ForeignKeyCombiner(fk_query)
        # Fact arrives before its dimensions: nothing can be emitted yet.
        assert combiner.process(StreamTuple("fact", (1, 7))) == []
        assert combiner.process(StreamTuple("dim1", (7, 3))) == []
        emitted = combiner.process(StreamTuple("dim2", (3, 9)))
        assert len(emitted) == 1
        assert emitted[0].relation == combiner.rewritten_query.relation_names[0]

    def test_duplicate_base_tuple_emits_nothing(self, fk_query):
        combiner = ForeignKeyCombiner(fk_query)
        combiner.process(StreamTuple("dim1", (7, 3)))
        assert combiner.process(StreamTuple("dim1", (7, 3))) == []

    def test_tpcds_queries_preserve_join_size(self):
        rng = random.Random(2)
        data = tpcds.generate(0.03, rng)
        for name, workload in tpcds.WORKLOADS.items():
            query, stream = workload(data, rng)
            combiner = ForeignKeyCombiner(query)
            rewritten = combiner.rewrite_stream(stream)
            original_db = Database(query)
            for item in stream:
                original_db.insert(item.relation, item.row)
            rewritten_db = Database(combiner.rewritten_query)
            for item in rewritten:
                rewritten_db.insert(item.relation, item.row)
            assert join_size(query, original_db) == join_size(
                combiner.rewritten_query, rewritten_db
            ), name
