"""Tests for join query hypergraphs."""

import pytest

from repro.relational import JoinQuery
from repro.relational.schema import KeyConstraint, RelationSchema


class TestConstruction:
    def test_from_spec(self, line3_query):
        assert line3_query.relation_names == ("R1", "R2", "R3")
        assert line3_query.attributes == frozenset({"x1", "x2", "x3", "x4"})

    def test_duplicate_relation_names_rejected(self):
        with pytest.raises(ValueError):
            JoinQuery("bad", [RelationSchema("R", ("x",)), RelationSchema("R", ("y",))])

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            JoinQuery("empty", [])

    def test_keys_from_spec(self):
        query = JoinQuery.from_spec(
            "q", {"A": ["x", "y"], "B": ["y"]}, keys={"B": ["y"]}
        )
        assert query.primary_key("B") == ("y",)
        assert query.primary_key("A") is None


class TestStructure:
    def test_relation_lookup(self, line3_query):
        assert line3_query.relation("R2").attrs == ("x2", "x3")
        assert "R2" in line3_query
        assert "nope" not in line3_query

    def test_relations_with_attr(self, line3_query):
        holders = [r.name for r in line3_query.relations_with_attr("x2")]
        assert holders == ["R1", "R2"]

    def test_output_attrs_canonical(self, star3_query):
        assert star3_query.output_attrs() == ("x0", "x1", "x2", "x3")

    def test_acyclicity_flags(self, line3_query, triangle_query):
        assert line3_query.is_acyclic() is True
        assert triangle_query.is_acyclic() is False
