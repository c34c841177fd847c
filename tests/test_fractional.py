"""Tests for fractional edge covers, AGM bounds and bag widths (Section 5)."""

import pytest

from repro.cyclic.fractional import (
    agm_bound,
    bag_width,
    fractional_edge_cover,
    fractional_edge_cover_number,
    induced_subquery,
    max_join_size_exponent,
)
from repro.workloads.graph import dumbbell_query, line_query, star_query, triangle_query


class TestEdgeCoverNumber:
    def test_triangle_is_three_halves(self):
        assert fractional_edge_cover_number(triangle_query()) == pytest.approx(1.5)

    def test_line_queries(self):
        # For a path of k edges the fractional edge cover number is
        # ceil((k+1)/2): the endpoints force unit weight on the end edges.
        assert fractional_edge_cover_number(line_query(2)) == pytest.approx(2.0)
        assert fractional_edge_cover_number(line_query(3)) == pytest.approx(2.0)
        assert fractional_edge_cover_number(line_query(4)) == pytest.approx(3.0)
        assert fractional_edge_cover_number(line_query(5)) == pytest.approx(3.0)

    def test_star_queries(self):
        # Every arm must be fully covered: rho* = k for star-k.
        for arms in (2, 3, 4):
            assert fractional_edge_cover_number(star_query(arms)) == pytest.approx(arms)

    def test_dumbbell(self):
        # Two triangles (1.5 each) plus the bridge edge covered for free: 3.0? No:
        # the bridge's endpoints are already covered by the triangles, and the
        # bridge relation itself needs no weight, so rho* = 3.0.
        assert fractional_edge_cover_number(dumbbell_query()) == pytest.approx(3.0)

    def test_cover_is_feasible(self, triangle_query_fixture=None):
        query = triangle_query()
        cover, objective = fractional_edge_cover(query)
        assert objective == pytest.approx(1.5)
        for attr in query.attributes:
            total = sum(
                weight
                for name, weight in cover.items()
                if attr in query.relation(name).attr_set
            )
            assert total >= 1.0 - 1e-6

    def test_max_join_size_exponent_alias(self):
        assert max_join_size_exponent(triangle_query()) == pytest.approx(1.5)


class TestAgmBound:
    def test_triangle_with_equal_sizes(self):
        query = triangle_query()
        bound = agm_bound(query, {name: 100 for name in query.relation_names})
        assert bound == pytest.approx(100 ** 1.5, rel=1e-6)

    def test_two_table(self):
        query = line_query(2)
        bound = agm_bound(query, {"G1": 30, "G2": 40})
        # rho* = 1 on each relation is infeasible; cover must hit x1, x2, x3:
        # both relations get weight 1 -> bound = 30 * 40.
        assert bound == pytest.approx(1200.0, rel=1e-6)

    def test_empty_relation_gives_zero(self):
        query = triangle_query()
        assert agm_bound(query, {"G1": 0, "G2": 10, "G3": 10}) == 0.0

    def test_bound_dominates_actual_join_size(self):
        from repro.relational import Database, join_size
        from tests.conftest import make_edges

        query = triangle_query()
        edges = make_edges(6, 16, seed=101)
        database = Database.from_dict(query, {name: edges for name in query.relation_names})
        bound = agm_bound(query, {name: len(edges) for name in query.relation_names})
        assert join_size(query, database) <= bound + 1e-6


class TestInducedSubqueryAndWidth:
    def test_induced_subquery_attrs(self):
        query = dumbbell_query()
        sub = induced_subquery(query, ["x1", "x2", "x3"])
        assert sub.attributes == frozenset({"x1", "x2", "x3"})
        # G1, G2, G3 project fully into the bag; G7 contributes just {x3}.
        assert len(sub.relations) == 4

    def test_induced_subquery_requires_overlap(self):
        query = triangle_query()
        with pytest.raises(ValueError):
            induced_subquery(query, ["zzz"])

    def test_bag_width_of_triangle_bag(self):
        query = dumbbell_query()
        assert bag_width(query, ["x1", "x2", "x3"]) == pytest.approx(1.5)
        assert bag_width(query, ["x3", "x4"]) == pytest.approx(1.0)
