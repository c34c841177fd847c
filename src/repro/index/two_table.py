"""Exact dynamic index for the two-table join (Section 4.1).

For ``R1(X, Y) ⋈ R2(Y, Z)`` no approximation is needed: the index is just the
two maintained semi-join lists ``R1 ⋉ b`` and ``R2 ⋉ b`` per join value
``b``, updates are O(1), delta batches are exact Cartesian products (1-dense,
no dummies at all) and every position is retrieved in O(1).

The class mirrors the public surface of
:class:`~repro.index.dynamic_index.DynamicJoinIndex` (``insert``,
``delta_batch_size``, ``total_weight``, ``sample``) and hands out each delta
batch as a :class:`~repro.core.skippable.FunctionBatch`, so the ablation
benchmarks can compare it against the generic index.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from ..core.skippable import FunctionBatch
from ..relational.database import Database
from ..relational.query import JoinQuery
from ..relational.schema import canonical_attrs


class TwoTableIndex:
    """Exact index for a binary natural join."""

    def __init__(self, query: JoinQuery) -> None:
        if len(query.relations) != 2:
            raise ValueError("TwoTableIndex only supports two-relation queries")
        self.query = query
        self.left, self.right = query.relations
        self.join_attrs = canonical_attrs(self.left.attr_set & self.right.attr_set)
        if not self.join_attrs:
            raise ValueError("the two relations share no attributes (pure cross product); "
                             "use DynamicJoinIndex for that case")
        self.database = Database(query)
        self.database[self.left.name].index_on(self.join_attrs)
        self.database[self.right.name].index_on(self.join_attrs)
        self._total = 0  # exact |Q(R)|
        self.tuples_inserted = 0
        self.duplicates_ignored = 0

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def insert(self, relation: str, row: Sequence) -> bool:
        """Insert a tuple; O(1)."""
        row = tuple(row)
        schema = self.query.relation(relation)
        other = self.right.name if relation == self.left.name else self.left.name
        if not self.database.insert(relation, row):
            self.duplicates_ignored += 1
            return False
        self.tuples_inserted += 1
        key = schema.project(row, self.join_attrs)
        self._total += len(self.database[other].semijoin(self.join_attrs, key))
        return True

    # ------------------------------------------------------------------ #
    # Delta batches — exact, 1-dense
    # ------------------------------------------------------------------ #
    def delta_batch_size(self, relation: str, row: Sequence) -> int:
        """Exact ``|ΔQ(R, t)|`` for a row just inserted into ``relation``."""
        schema = self.query.relation(relation)
        other = self.right.name if relation == self.left.name else self.left.name
        key = schema.project(row, self.join_attrs)
        return len(self.database[other].semijoin(self.join_attrs, key))

    def delta_batch(self, relation: str, row: Sequence) -> FunctionBatch:
        """The exact delta batch (every position is a real join result)."""
        row = tuple(row)
        schema = self.query.relation(relation)
        other_name = self.right.name if relation == self.left.name else self.left.name
        other_schema = self.query.relation(other_name)
        key = schema.project(row, self.join_attrs)
        matches = self.database[other_name].semijoin(self.join_attrs, key)
        base = schema.row_to_mapping(row)

        def retrieve(position: int) -> Optional[dict]:
            result = dict(base)
            result.update(other_schema.row_to_mapping(matches[position]))
            return result

        return FunctionBatch(len(matches), retrieve)

    # ------------------------------------------------------------------ #
    # Full-query sampling — exact
    # ------------------------------------------------------------------ #
    def total_weight(self) -> int:
        """Exact ``|Q(R)|`` (no padding for the two-table join)."""
        return self._total

    def sample(self, rng: Optional[random.Random] = None) -> Optional[dict]:
        """One uniform sample from the current join (``None`` when empty).

        Uses weighted selection of a left tuple by its exact degree followed
        by a uniform partner, i.e. the classical two-table sampling index of
        Chaudhuri et al. adapted to the dynamic setting.
        """
        if self._total == 0:
            return None
        rng = rng if rng is not None else random.Random()
        position = rng.randrange(self._total)
        left_rel = self.database[self.left.name]
        right_rel = self.database[self.right.name]
        for row in left_rel.rows:
            key = self.left.project(row, self.join_attrs)
            matches = right_rel.semijoin(self.join_attrs, key)
            if position < len(matches):
                result = self.left.row_to_mapping(row)
                result.update(self.right.row_to_mapping(matches[position]))
                return result
            position -= len(matches)
        raise AssertionError("total join size is inconsistent with the index")

    @property
    def size(self) -> int:
        """Number of stored tuples."""
        return self.database.size
