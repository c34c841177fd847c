"""Relation instances with maintained hash indexes.

The dynamic sampling index of the paper repeatedly performs semi-joins of the
form ``R_e ⋉ t`` where ``t`` is a value tuple over a subset of ``R_e``'s
attributes (Section 4.3).  :class:`Relation` therefore supports *maintained*
hash indexes on arbitrary attribute subsets: once registered, an index is
kept up to date by every insert in O(1) time, and exposes the matching rows
as an append-only list with positional access (needed by ``Retrieve``,
Algorithm 9, Case 1).  The grouping optimisation's projections (Section 4.4)
live in :class:`repro.index.grouping.GroupView`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .schema import RelationSchema, canonical_attrs, tuple_getter

Row = Tuple


class RelationIndex:
    """A maintained hash index of a relation on an attribute subset.

    Maps the canonical projection of a row onto ``attrs`` to the list of rows
    having that projection.  ``Retrieve`` (Algorithm 9, Case 1) only needs a
    *bijection* between ``[0, cnt)`` and the group's rows at sampling time,
    not any particular order, so deletions may compact a group with a
    swap-with-last removal without breaking positional retrieval.
    """

    def __init__(self, relation: "Relation", attrs: Iterable[str]) -> None:
        self.attrs = canonical_attrs(attrs)
        self._positions = relation.schema.positions_of(self.attrs)
        self._key_of = tuple_getter(self._positions)
        self._groups: Dict[Tuple, List[Row]] = {}
        for row in relation.rows:
            self.add(row)

    def key_of(self, row: Row) -> Tuple:
        """Projection of ``row`` onto the index attributes (canonical order)."""
        return self._key_of(row)

    def add(self, row: Row) -> None:
        """Register a newly inserted row (called by :class:`Relation`)."""
        self._groups.setdefault(self._key_of(row), []).append(row)

    def add_many(self, rows: List[Row]) -> None:
        """Bulk :meth:`add` with the dispatch hoisted out of the row loop."""
        key_of = self._key_of
        groups = self._groups
        for row in rows:
            groups.setdefault(key_of(row), []).append(row)

    def remove(self, row: Row) -> None:
        """Unregister a deleted row (called by :class:`Relation`).

        O(|group|) for the linear scan; group fan-outs are bounded by the
        join's per-key multiplicity, which real workloads keep small.
        """
        key = self._key_of(row)
        group = self._groups[key]
        pos = group.index(row)
        last = group.pop()
        if pos < len(group):
            group[pos] = last
        if not group:
            del self._groups[key]

    def lookup(self, key: Tuple) -> List[Row]:
        """Rows whose projection equals ``key`` (empty list when none)."""
        return self._groups.get(key, [])

    def keys(self) -> Iterator[Tuple]:
        """Iterate over the distinct keys present in the index."""
        return iter(self._groups)

    def __len__(self) -> int:
        return len(self._groups)


class Relation:
    """A set-semantics relation instance with maintained indexes.

    Rows are plain tuples ordered by ``schema.attrs``.  Duplicate inserts are
    ignored (the paper assumes duplicates have been removed from the stream;
    we enforce it here so callers do not have to).

    :attr:`rows` is one insertion-ordered dict (row → ``None``): it answers
    membership, iterates in insertion order, and gives turnstile streams an
    O(1) :meth:`delete`, which matters because a sliding window eventually
    deletes *every* row it ever admitted.  A delete leaves the other rows in
    order, and a re-inserted row goes to the end.
    """

    def __init__(self, schema: RelationSchema, rows: Optional[Iterable[Sequence]] = None) -> None:
        self.schema = schema
        self.rows: Dict[Row, None] = {}
        self._indexes: Dict[Tuple[str, ...], RelationIndex] = {}
        self._on_insert: List[Callable[[Row], None]] = []
        self._on_delete: List[Callable[[Row], None]] = []
        if rows is not None:
            for row in rows:
                self.insert(row)

    @property
    def name(self) -> str:
        """The relation's name."""
        return self.schema.name

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: Sequence) -> bool:
        return tuple(row) in self.rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def insert(self, row: Sequence) -> bool:
        """Insert a row.  Returns ``True`` if the row is new, ``False`` otherwise.

        All registered indexes and insert callbacks are updated when the row
        is new.
        """
        row = tuple(row)
        if len(row) != self.schema.arity:
            raise ValueError(
                f"row arity {len(row)} does not match relation "
                f"{self.schema.name!r} arity {self.schema.arity}"
            )
        if row in self.rows:
            return False
        self.rows[row] = None
        for index in self._indexes.values():
            index.add(row)
        for callback in self._on_insert:
            callback(row)
        return True

    def delete(self, row: Sequence) -> bool:
        """Delete a row.  Returns ``True`` if the row was present.

        All registered indexes and delete callbacks are updated when the row
        was present; deleting an absent row is a no-op
        (turnstile tombstone bookkeeping lives above this layer, see
        ``repro.core.turnstile``).
        """
        row = tuple(row)
        if row not in self.rows:
            return False
        del self.rows[row]
        for index in self._indexes.values():
            index.remove(row)
        for callback in self._on_delete:
            callback(row)
        return True

    def insert_many(self, rows: Iterable[Sequence]) -> List[Row]:
        """Insert several rows; returns the new (deduplicated) rows in order.

        Behaviourally identical to calling :meth:`insert` per row — the
        index/callback maintenance loops are simply hoisted out of the
        per-row dispatch, which matters on the batched ingestion hot path.
        """
        arity = self.schema.arity
        rows = [tuple(row) for row in rows]
        # Validate the whole batch before mutating anything, so a bad row
        # mid-batch cannot leave the relation half-updated.
        for row in rows:
            if len(row) != arity:
                raise ValueError(
                    f"row arity {len(row)} does not match relation "
                    f"{self.schema.name!r} arity {arity}"
                )
        stored = self.rows
        new_rows: List[Row] = []
        for row in rows:
            if row in stored:
                continue
            stored[row] = None
            new_rows.append(row)
        if new_rows:
            for index in self._indexes.values():
                index.add_many(new_rows)
            for callback in self._on_insert:
                for row in new_rows:
                    callback(row)
        return new_rows

    def index_on(self, attrs: Iterable[str]) -> RelationIndex:
        """Return (creating and registering if needed) an index on ``attrs``."""
        key = canonical_attrs(attrs)
        index = self._indexes.get(key)
        if index is None:
            index = RelationIndex(self, key)
            self._indexes[key] = index
        return index

    def add_insert_callback(self, callback: Callable[[Row], None]) -> None:
        """Register a callback invoked for every *new* row inserted."""
        self._on_insert.append(callback)

    def add_delete_callback(self, callback: Callable[[Row], None]) -> None:
        """Register a callback invoked for every present row deleted."""
        self._on_delete.append(callback)

    def semijoin(self, attrs: Iterable[str], key: Tuple) -> List[Row]:
        """``R ⋉ key`` where ``key`` is a canonical value tuple over ``attrs``."""
        return self.index_on(attrs).lookup(key)

    def project(self, row: Sequence, attrs: Iterable[str]) -> Tuple:
        """Project a row of this relation onto ``attrs`` (canonical order)."""
        return self.schema.project(row, attrs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self.schema.name}, {len(self.rows)} rows)"
