"""The full dynamic index ``L`` of Theorem 4.2.

:class:`DynamicJoinIndex` maintains one :class:`~repro.index.tree_index.TreeIndex`
per relation of an acyclic query (each rooted at that relation) over a shared
:class:`~repro.relational.database.Database`.  It supports, per Theorem 4.2:

1. ``insert`` — add a tuple to the database and update every rooted tree in
   ``O(log N)`` amortised time;
2. ``sample`` / ``total_weight`` — uniform sampling from the *full* current
   join in ``O(log N)`` expected time (the dynamic sampling-over-joins
   problem);
3. ``delta_batch`` — positional access to the Ω(1)-dense array
   ``ΔJ ⊇ ΔQ(R, t)`` of the delta query of a newly inserted tuple, which is
   what the reservoir-sampling-over-joins algorithm consumes.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.skippable import FunctionBatch
from ..relational.database import Database
from ..relational.jointree import JoinTree
from ..relational.query import JoinQuery
from .tree_index import TreeIndex


class DynamicJoinIndex:
    """Dynamic index for sampling over an acyclic join (Section 4).

    Parameters
    ----------
    query:
        The acyclic join query.  A ``ValueError`` is raised for cyclic
        queries — use :class:`repro.cyclic.CyclicReservoirJoin` for those.
    grouping:
        Enable the grouping optimisation of Section 4.4 in every tree.
    maintain_root:
        Maintain the root bucket families so that :meth:`sample` and
        :meth:`total_weight` are available.  The pure reservoir-sampling
        pipeline does not need them; disabling saves a constant factor.
        The tree rooted at the query's first relation answers full-query
        sampling.
    """

    def __init__(
        self,
        query: JoinQuery,
        grouping: bool = False,
        maintain_root: bool = True,
    ) -> None:
        try:
            # The GYO reduction behind the join tree is the acyclicity test.
            join_tree = JoinTree(query)
        except ValueError:
            raise ValueError(
                f"query {query.name!r} is cyclic; DynamicJoinIndex only supports "
                "acyclic joins (see repro.cyclic for the GHD-based extension)"
            ) from None
        self.query = query
        self.grouping = grouping
        self.maintain_root = maintain_root
        self.database = Database(query)
        self._join_tree = join_tree
        self.sampling_root = query.relation_names[0]
        self.trees: Dict[str, TreeIndex] = {}
        for name in query.relation_names:
            keep_root = maintain_root if name == self.sampling_root else False
            self.trees[name] = TreeIndex(
                self._join_tree.rooted_at(name),
                self.database,
                grouping=grouping,
                maintain_root=keep_root,
            )
        self.tuples_inserted = 0
        self.duplicates_ignored = 0
        self.tuples_deleted = 0
        self.deletes_ignored = 0

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def insert(self, relation: str, row: Sequence) -> bool:
        """Insert a tuple; returns whether it was new (duplicates are ignored)."""
        row = tuple(row)
        if not self.database.insert(relation, row):
            self.duplicates_ignored += 1
            return False
        self.tuples_inserted += 1
        for tree in self.trees.values():
            tree.insert_row(relation, row)
        return True

    def insert_rows(self, relation: str, rows: Iterable[Sequence]) -> List[tuple]:
        """Bulk-insert several rows into one relation; returns the new rows.

        Duplicates (within the batch or against the database) are dropped and
        counted in ``duplicates_ignored``.  Every rooted tree is updated with
        one run instead of one call per tuple; every family ends with the
        ``cnt``, ``c̃nt`` and bucket members repeated :meth:`insert` gives.
        A ``KeyError`` is raised for a relation that is not part of the
        query.
        """
        target = self.database[relation]
        rows = [tuple(row) for row in rows]
        new_rows = target.insert_many(rows)
        self.duplicates_ignored += len(rows) - len(new_rows)
        if new_rows:
            self.tuples_inserted += len(new_rows)
            for tree in self.trees.values():
                tree.insert_rows(relation, new_rows)
        return new_rows

    def delete(self, relation: str, row: Sequence) -> bool:
        """Delete a tuple; returns whether it was present.

        The exact mirror of :meth:`insert`: the database (and every
        maintained relation index / group view) is updated first, then every
        rooted tree runs the same update with the opposite sign.  Deleting an absent
        row is a counted no-op — turnstile tombstone semantics (a delete
        arriving before its insert annihilates the later insert) live in
        ``repro.core.turnstile``, above this layer.
        """
        row = tuple(row)
        if not self.database.delete(relation, row):
            self.deletes_ignored += 1
            return False
        self.tuples_deleted += 1
        for tree in self.trees.values():
            tree.delete_row(relation, row)
        return True

    # ------------------------------------------------------------------ #
    # Delta batches (operation (3) of Theorem 4.2)
    # ------------------------------------------------------------------ #
    def delta_batch(self, relation: str, row: Sequence) -> FunctionBatch:
        """The batch ``ΔJ ⊇ ΔQ(R, t)`` for a row just inserted into ``relation``."""
        return self.trees[relation].delta_batch(tuple(row))

    def delta_batch_size(self, relation: str, row: Sequence) -> int:
        """``|ΔJ|`` for a row just inserted into ``relation``."""
        return self.trees[relation].delta_batch_size(tuple(row))

    # ------------------------------------------------------------------ #
    # Full-query sampling (operation (2) of Theorem 4.2)
    # ------------------------------------------------------------------ #
    def total_weight(self) -> int:
        """``|J|`` — padded size of the current join (upper bound on ``|Q(R)|``)."""
        return self.trees[self.sampling_root].total_weight()

    def retrieve(self, position: int) -> Optional[dict]:
        """``J[position]`` for the full query; ``None`` at dummy positions."""
        return self.trees[self.sampling_root].retrieve_global(position)

    def sample(self, rng: Optional[random.Random] = None) -> Optional[dict]:
        """One uniform sample from the current join (``None`` if it is empty)."""
        rng = rng if rng is not None else random.Random()
        return self.trees[self.sampling_root].sample(rng)

    def sample_many(self, count: int, rng: Optional[random.Random] = None) -> list:
        """``count`` independent uniform samples (with replacement)."""
        rng = rng if rng is not None else random.Random()
        samples = []
        for _ in range(count):
            result = self.sample(rng)
            if result is None:
                break
            samples.append(result)
        return samples

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of tuples currently stored (``N``)."""
        return self.database.size

    @property
    def propagations(self) -> int:
        """Total propagation-loop executions across all rooted trees (Figure 9)."""
        return sum(tree.propagations for tree in self.trees.values())

    def validate(self) -> None:
        """Validate the invariants of every rooted tree (slow; tests only)."""
        for tree in self.trees.values():
            tree.validate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicJoinIndex({self.query.name!r}, N={self.size}, "
            f"grouping={self.grouping})"
        )
