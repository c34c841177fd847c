"""Tests for generalized hypertree decompositions (Section 5)."""

import pytest

from repro.cyclic.ghd import GHD, ghd_for, ghd_from_primal_graph, trivial_ghd
from repro.relational import JoinQuery
from repro.workloads.graph import dumbbell_query, line_query, triangle_query


class TestValidation:
    def test_uncovered_relation_rejected(self):
        query = triangle_query()
        with pytest.raises(ValueError):
            GHD(query, {"b1": ["x1", "x2"], "b2": ["x2", "x3"]}, [("b1", "b2")])

    def test_running_intersection_violation_rejected(self):
        query = line_query(3)
        with pytest.raises(ValueError):
            GHD(
                query,
                {"b1": ["x1", "x2", "x3"], "b2": ["x2"], "b3": ["x3", "x4"]},
                [("b1", "b2"), ("b2", "b3")],
            )

    def test_disconnected_tree_rejected(self):
        query = line_query(2)
        with pytest.raises(ValueError):
            GHD(query, {"b1": ["x1", "x2", "x3"], "b2": ["x2", "x3"]}, [])

    def test_non_tree_rejected(self):
        query = triangle_query()
        with pytest.raises(ValueError):
            GHD(
                query,
                {"b1": ["x1", "x2", "x3"], "b2": ["x1", "x2"], "b3": ["x2", "x3"]},
                [("b1", "b2"), ("b2", "b3"), ("b3", "b1")],
            )

    def test_valid_manual_ghd(self):
        query = dumbbell_query()
        ghd = GHD(
            query,
            {
                "left": ["x1", "x2", "x3"],
                "bridge": ["x3", "x4"],
                "right": ["x4", "x5", "x6"],
            },
            [("left", "bridge"), ("bridge", "right")],
        )
        assert ghd.width() == pytest.approx(1.5)


class TestConstructions:
    def test_trivial_ghd_for_acyclic(self):
        query = line_query(3)
        ghd = trivial_ghd(query)
        assert len(ghd.bags) == 3
        assert ghd.width() == pytest.approx(1.0)

    def test_primal_graph_ghd_triangle(self):
        ghd = ghd_from_primal_graph(triangle_query())
        assert ghd.width() == pytest.approx(1.5)
        assert len(ghd.bags) == 1

    def test_primal_graph_ghd_dumbbell(self):
        ghd = ghd_from_primal_graph(dumbbell_query())
        # The natural decomposition has width 1.5 (Figure 4).
        assert ghd.width() == pytest.approx(1.5)

    def test_primal_graph_ghd_cycle4(self):
        query = JoinQuery.from_spec(
            "c4", {"R1": ["a", "b"], "R2": ["b", "c"], "R3": ["c", "d"], "R4": ["d", "a"]}
        )
        ghd = ghd_from_primal_graph(query)
        assert ghd.width() <= 2.0 + 1e-9

    def test_ghd_for_dispatch(self):
        assert len(ghd_for(line_query(2)).bags) == 2          # trivial for acyclic
        assert len(ghd_for(triangle_query()).bags) == 1       # heuristic for cyclic
        manual = trivial_ghd(line_query(2))
        assert ghd_for(line_query(2), manual) is manual       # manual wins


class TestDerivedStructures:
    def test_bag_query_is_acyclic(self):
        for query in (triangle_query(), dumbbell_query()):
            ghd = ghd_for(query)
            bag_query = ghd.bag_query()
            assert bag_query.is_acyclic()

    def test_covering_bag(self):
        ghd = ghd_for(dumbbell_query())
        for relation in dumbbell_query().relation_names:
            bag = ghd.covering_bag(relation)
            attrs = set(ghd.bags[bag])
            assert set(dumbbell_query().relation(relation).attr_set) <= attrs

    def test_bags_touching(self):
        query = dumbbell_query()
        ghd = GHD(
            query,
            {
                "left": ["x1", "x2", "x3"],
                "bridge": ["x3", "x4"],
                "right": ["x4", "x5", "x6"],
            },
            [("left", "bridge"), ("bridge", "right")],
        )
        assert set(ghd.bags_touching("G7")) == {"left", "bridge", "right"}
        assert set(ghd.bags_touching("G1")) == {"left"}
