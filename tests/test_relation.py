"""Tests for relation instances, maintained indexes and projection views."""

import pytest

from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema


@pytest.fixture
def relation():
    return Relation(RelationSchema("R", ("x", "y", "z")))


class TestRelationBasics:
    def test_insert_and_contains(self, relation):
        assert relation.insert((1, 2, 3)) is True
        assert (1, 2, 3) in relation
        assert len(relation) == 1

    def test_duplicate_insert_ignored(self, relation):
        relation.insert((1, 2, 3))
        assert relation.insert((1, 2, 3)) is False
        assert len(relation) == 1

    def test_wrong_arity_rejected(self, relation):
        with pytest.raises(ValueError):
            relation.insert((1, 2))

    def test_rows_preserve_insertion_order(self, relation):
        relation.insert((3, 3, 3))
        relation.insert((1, 1, 1))
        assert relation.rows == [(3, 3, 3), (1, 1, 1)]

    def test_constructor_bulk_rows(self):
        rel = Relation(RelationSchema("R", ("x",)), rows=[(1,), (2,), (1,)])
        assert len(rel) == 2

    def test_insert_callback_only_for_new_rows(self, relation):
        seen = []
        relation.add_insert_callback(seen.append)
        relation.insert((1, 2, 3))
        relation.insert((1, 2, 3))
        relation.insert((4, 5, 6))
        assert seen == [(1, 2, 3), (4, 5, 6)]


class TestRelationIndex:
    def test_index_created_lazily_and_reused(self, relation):
        index_a = relation.index_on(["y"])
        index_b = relation.index_on(("y",))
        assert index_a is index_b

    def test_index_covers_existing_rows(self, relation):
        relation.insert((1, 2, 3))
        index = relation.index_on(["y"])
        assert index.lookup((2,)) == [(1, 2, 3)]

    def test_index_maintained_on_insert(self, relation):
        index = relation.index_on(["y", "z"])
        relation.insert((1, 2, 3))
        relation.insert((9, 2, 3))
        assert index.lookup((2, 3)) == [(1, 2, 3), (9, 2, 3)]

    def test_semijoin(self, relation):
        relation.insert((1, 2, 3))
        relation.insert((1, 9, 3))
        assert relation.semijoin(["x"], (1,)) == [(1, 2, 3), (1, 9, 3)]
        assert relation.semijoin(["x"], (5,)) == []

    def test_index_keys_iteration(self, relation):
        relation.insert((1, 2, 3))
        relation.insert((4, 5, 6))
        index = relation.index_on(["x"])
        assert sorted(index.keys()) == [(1,), (4,)]
        assert len(index) == 2

    def test_index_key_canonical_order(self):
        # Attributes are sorted, regardless of how the index was requested.
        rel = Relation(RelationSchema("R", ("b", "a")))
        rel.insert((1, 2))  # b=1, a=2
        index = rel.index_on(["b", "a"])
        assert index.key_of((1, 2)) == (2, 1)  # (a, b)
