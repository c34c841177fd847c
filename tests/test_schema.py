"""Tests for relation schemas and key constraints."""

import pytest

from repro.relational.schema import KeyConstraint, RelationSchema, canonical_attrs


class TestCanonicalAttrs:
    def test_sorts_and_dedupes(self):
        assert canonical_attrs(["b", "a", "b"]) == ("a", "b")

    def test_empty(self):
        assert canonical_attrs([]) == ()

    def test_accepts_any_iterable(self):
        assert canonical_attrs({"y", "x"}) == ("x", "y")


class TestRelationSchema:
    def test_basic_properties(self):
        schema = RelationSchema("R", ("x", "y"))
        assert schema.name == "R"
        assert schema.arity == 2
        assert schema.attr_set == frozenset({"x", "y"})

    def test_rejects_duplicate_attrs(self):
        with pytest.raises(ValueError):
            RelationSchema("R", ("x", "x"))

    def test_rejects_empty_attrs(self):
        with pytest.raises(ValueError):
            RelationSchema("R", ())

    def test_positions_of_canonical_order(self):
        schema = RelationSchema("R", ("b", "a", "c"))
        assert schema.positions_of(["c", "a"]) == (1, 2)

    def test_positions_of_unknown_attr(self):
        schema = RelationSchema("R", ("a", "b"))
        with pytest.raises(KeyError):
            schema.positions_of(["z"])

    def test_project_orders_canonically(self):
        schema = RelationSchema("R", ("b", "a"))
        # canonical order of {a, b} is (a, b): value of a is row[1], b is row[0]
        assert schema.project((10, 20), ["a", "b"]) == (20, 10)

    def test_project_subset(self):
        schema = RelationSchema("R", ("x", "y", "z"))
        assert schema.project((1, 2, 3), ["z"]) == (3,)

    def test_row_from_mapping_roundtrip(self):
        schema = RelationSchema("R", ("x", "y"))
        row = schema.row_from_mapping({"y": 2, "x": 1})
        assert row == (1, 2)
        assert schema.row_to_mapping(row) == {"x": 1, "y": 2}

    def test_row_from_mapping_missing_attr(self):
        schema = RelationSchema("R", ("x", "y"))
        with pytest.raises(KeyError):
            schema.row_from_mapping({"x": 1})

    def test_row_to_mapping_wrong_arity(self):
        schema = RelationSchema("R", ("x", "y"))
        with pytest.raises(ValueError):
            schema.row_to_mapping((1, 2, 3))

    def test_is_hashable_and_frozen(self):
        schema = RelationSchema("R", ("x", "y"))
        assert hash(schema) == hash(RelationSchema("R", ("x", "y")))
        with pytest.raises(Exception):
            schema.name = "other"


class TestKeyConstraint:
    def test_canonicalises_attrs(self):
        constraint = KeyConstraint("R", ("b", "a"))
        assert constraint.attrs == ("a", "b")

    def test_equality(self):
        assert KeyConstraint("R", ("a",)) == KeyConstraint("R", ("a",))
