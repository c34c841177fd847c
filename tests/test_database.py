"""Tests for database instances."""

import pytest

from repro.relational import Database


@pytest.fixture
def database(two_table_query):
    return Database(two_table_query)


class TestDatabase:
    def test_empty_on_creation(self, database):
        assert database.size == 0
        assert [len(relation) for relation in database] == [0, 0]

    def test_insert_and_size(self, database):
        assert database.insert("R1", (1, 2)) is True
        assert database.insert("R1", (1, 2)) is False
        assert database.insert("R2", (2, 3)) is True
        assert database.size == 2

    def test_from_dict(self, two_table_query):
        database = Database.from_dict(
            two_table_query, {"R1": [(1, 2)], "R2": [(2, 3), (2, 4)]}
        )
        assert list(database["R1"].rows) == [(1, 2)]
        assert list(database["R2"].rows) == [(2, 3), (2, 4)]

    def test_from_dict_keeps_one_copy_of_each_row(self, two_table_query):
        database = Database.from_dict(
            two_table_query, {"R1": [(1, 2), (3, 4), (1, 2)], "R2": []}
        )
        assert list(database["R1"].rows) == [(1, 2), (3, 4)]
        assert database.size == 2
        assert database.insert("R1", (3, 4)) is False

    def test_contains_and_iter(self, database):
        assert "R1" in database
        assert "missing" not in database
        assert sorted(rel.name for rel in database) == ["R1", "R2"]

    def test_unknown_relation_raises(self, database):
        with pytest.raises(KeyError):
            database.insert("missing", (1,))
