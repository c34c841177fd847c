"""Database instances: one :class:`Relation` per relation of a query."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Sequence

from .query import JoinQuery
from .relation import Relation


class Database:
    """A database instance ``R`` for a join query (Section 2.1).

    Holds one :class:`Relation` per relation schema of the query and exposes
    the total number of tuples ``N``.
    """

    def __init__(self, query: JoinQuery) -> None:
        self.query = query
        self.relations: Dict[str, Relation] = {
            schema.name: Relation(schema) for schema in query.relations
        }

    def __getitem__(self, name: str) -> Relation:
        return self.relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.relations.values())

    @property
    def size(self) -> int:
        """Total number of tuples ``N`` across all relations."""
        return sum(len(rel) for rel in self.relations.values())

    def insert(self, relation: str, row: Sequence) -> bool:
        """Insert ``row`` into ``relation``; returns whether the row was new."""
        return self.relations[relation].insert(row)

    def delete(self, relation: str, row: Sequence) -> bool:
        """Delete ``row`` from ``relation``; returns whether it was present."""
        return self.relations[relation].delete(row)

    def bulk_load(self, relation: str, rows: Iterable[Sequence]) -> int:
        """Insert many rows; returns the number of new rows."""
        inserted = 0
        for row in rows:
            if self.insert(relation, row):
                inserted += 1
        return inserted

    def counts(self) -> Dict[str, int]:
        """Per-relation tuple counts."""
        return {name: len(rel) for name, rel in self.relations.items()}

    @classmethod
    def from_dict(
        cls, query: JoinQuery, data: Mapping[str, Iterable[Sequence]]
    ) -> "Database":
        """Build a database with ``data[relation] = iterable of rows``."""
        database = cls(query)
        for relation, rows in data.items():
            database.bulk_load(relation, rows)
        return database

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        counts = ", ".join(f"{n}={len(r)}" for n, r in self.relations.items())
        return f"Database({self.query.name!r}: {counts})"
