"""Tests for the reference join evaluator (full joins and delta queries)."""

import itertools
import random

from repro.relational import Database, JoinQuery, delta_results, join_results, join_size
from tests.conftest import make_edges, make_graph_stream


class TestFullJoin:
    def test_two_table_against_bruteforce(self, two_table_query):
        database = Database.from_dict(
            two_table_query,
            {"R1": [(1, 10), (2, 10), (3, 20)], "R2": [(10, 100), (10, 200), (30, 300)]},
        )
        results = join_results(two_table_query, database)
        expected = {
            (1, 10, 100), (1, 10, 200), (2, 10, 100), (2, 10, 200),
        }
        assert {(r["x"], r["y"], r["z"]) for r in results} == expected
        assert join_size(two_table_query, database) == 4

    def test_empty_relation_gives_empty_join(self, line3_query):
        database = Database.from_dict(line3_query, {"R1": [(1, 2)], "R2": [(2, 3)]})
        assert join_results(line3_query, database) == []

    def test_cartesian_product(self):
        query = JoinQuery.from_spec("cross", {"A": ["x"], "B": ["y"]})
        database = Database.from_dict(query, {"A": [(1,), (2,)], "B": [(3,), (4,)]})
        assert join_size(query, database) == 4

    def test_line3_against_bruteforce(self, line3_query):
        rng = random.Random(0)
        edges = make_edges(5, 12, seed=3)
        database = Database.from_dict(
            line3_query, {name: edges for name in line3_query.relation_names}
        )
        expected = 0
        for (a, b), (c, d), (e, f) in itertools.product(edges, repeat=3):
            if b == c and d == e:
                expected += 1
        assert join_size(line3_query, database) == expected

    def test_triangle_cyclic_join(self, triangle_query):
        edges = [(1, 2), (2, 3), (1, 3), (3, 4)]
        database = Database.from_dict(
            triangle_query, {name: edges for name in triangle_query.relation_names}
        )
        # R1(x1,x2), R2(x2,x3), R3(x1,x3): only (1,2,3) forms a triangle.
        results = join_results(triangle_query, database)
        assert {(r["x1"], r["x2"], r["x3"]) for r in results} == {(1, 2, 3)}


class TestDeltaJoin:
    def test_delta_equals_difference_of_joins(self, line3_query):
        edges = make_edges(5, 10, seed=1)
        stream = make_graph_stream(line3_query, edges, seed=2)
        database = Database(line3_query)
        previous: set = set()
        for item in stream:
            if not database.insert(item.relation, item.row):
                continue
            now = {
                tuple(sorted(r.items()))
                for r in join_results(line3_query, database)
            }
            delta = delta_results(line3_query, database, item.relation, item.row)
            delta_keys = {tuple(sorted(r.items())) for r in delta}
            assert delta_keys == now - previous
            previous = now

    def test_delta_requires_row_present(self, two_table_query):
        database = Database.from_dict(two_table_query, {"R2": [(2, 3)]})
        # The row has not been inserted: by definition the delta is empty.
        assert delta_results(two_table_query, database, "R1", (1, 2)) == []

    def test_delta_size(self, two_table_query):
        database = Database.from_dict(
            two_table_query, {"R1": [(1, 10)], "R2": [(10, 1), (10, 2), (20, 3)]}
        )
        assert len(delta_results(two_table_query, database, "R1", (1, 10))) == 2

    def test_star_delta_uses_all_arms(self, star3_query):
        database = Database.from_dict(
            star3_query,
            {"R1": [(0, 1)], "R2": [(0, 5), (0, 6)], "R3": [(0, 7)]},
        )
        assert len(delta_results(star3_query, database, "R1", (0, 1))) == 2
