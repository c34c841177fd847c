"""Tests for the grouping optimisation helpers (Section 4.4)."""

import pytest

from repro.index.grouping import GroupView, grouping_attrs
from repro.relational import JoinQuery
from repro.relational.jointree import JoinTree
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema


@pytest.fixture
def wide_middle_query():
    """Q = Ra(X,Y) ⋈ Rb(Y,Z,W) ⋈ Rc(W,U): Rb has a groupable payload attribute Z."""
    return JoinQuery.from_spec(
        "wide", {"Ra": ["x", "y"], "Rb": ["y", "z", "w"], "Rc": ["w", "u"]}
    )


class TestGroupingAttrs:
    def test_middle_node_grouped(self, wide_middle_query):
        tree = JoinTree(wide_middle_query).rooted_at("Rc")
        assert grouping_attrs(tree, "Rb") == ("w", "y")

    def test_root_never_grouped(self, wide_middle_query):
        tree = JoinTree(wide_middle_query).rooted_at("Rc")
        assert grouping_attrs(tree, "Rc") is None

    def test_leaf_never_grouped(self, wide_middle_query):
        tree = JoinTree(wide_middle_query).rooted_at("Rc")
        assert grouping_attrs(tree, "Ra") is None

    def test_no_payload_means_no_grouping(self, line3_query):
        tree = JoinTree(line3_query).rooted_at("R1")
        # R2(x2, x3): key(R2)={x2}, child key {x3}: no attribute left over.
        assert grouping_attrs(tree, "R2") is None


class TestGroupView:
    def make_view(self):
        relation = Relation(RelationSchema("Rb", ("y", "z", "w")))
        view = GroupView(relation, ["y", "w"])
        return relation, view

    def test_groups_and_feq(self):
        relation, view = self.make_view()
        relation.insert((1, 1, 2))
        relation.insert((1, 2, 2))
        relation.insert((1, 3, 2))
        relation.insert((2, 1, 2))
        assert len(view) == 2
        assert view.feq((2, 1)) == 3       # group (w=2, y=1) has three members
        assert view.feq_approx((2, 1)) == 4
        assert view.feq((2, 2)) == 1
        assert view.feq((9, 9)) == 0

    def test_members_positional_access(self):
        relation, view = self.make_view()
        relation.insert((1, 1, 2))
        relation.insert((1, 2, 2))
        members = view.members((2, 1))
        assert members == [(1, 1, 2), (1, 2, 2)]

    def test_group_of_and_project(self):
        relation, view = self.make_view()
        relation.insert((1, 5, 2))
        group = view.group_of((1, 5, 2))
        assert group == (2, 1)  # canonical order (w, y)
        assert view.project(group, ["y"]) == (1,)
        assert view.project(group, ["w"]) == (2,)

    def test_view_absorbs_preexisting_rows(self):
        relation = Relation(RelationSchema("R", ("a", "b")), rows=[(1, 1), (1, 2)])
        view = GroupView(relation, ["a"])
        assert view.feq((1,)) == 2

    def test_group_relation_is_indexable(self):
        relation, view = self.make_view()
        relation.insert((1, 1, 2))
        relation.insert((3, 1, 2))
        assert view.relation.semijoin(["w"], (2,)) == [(2, 1), (2, 3)]
