"""SJoin: the state-of-the-art baseline of Zhao et al. [31] (SIGMOD 2020).

SJoin also follows the "index + reservoir over delta batches" framework
(Figure 1 of the paper), but its index maintains *exact* delta-query counts
and exact positional access to ``ΔQ(R, t)``:

* every per-key count is the exact number of sub-join results, so there are
  no dummy positions and the plain (no-predicate) reservoir sampler suffices;
* the price is maintenance: any count change — not just power-of-two
  doublings — must be propagated to the parent, so a single insertion can
  touch Θ(N) index entries and the total maintenance cost is Θ(N²) in the
  worst case.

This reimplementation follows that design (with lazily rebuilt prefix-sum
arrays for positional access, standing in for the heuristics of [31]) and is
used as the comparison point in the Figure 5-10 experiments.
"""

from __future__ import annotations

import bisect
import random
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.backend import PerTupleBatchMixin
from ..core.batch_reservoir import BatchedPredicateReservoir
from ..core.skippable import FunctionBatch
from ..index.foreign_key import ForeignKeyCombiner
from ..relational.database import Database
from ..relational.jointree import JoinTree, RootedJoinTree
from ..relational.query import JoinQuery
from ..relational.stream import StreamTuple


class _ExactEntry:
    """Exact per-(node, key) state: rows, their exact weights and prefix sums."""

    __slots__ = ("rows", "weights", "count", "_prefix", "_dirty")

    def __init__(self) -> None:
        self.rows: List[Tuple] = []
        self.weights: Dict[Tuple, int] = {}
        self.count = 0
        self._prefix: List[int] = []
        self._dirty = True

    def set_weight(self, row: Tuple, weight: int) -> int:
        """Set a row's exact weight; returns the change in total count."""
        old = self.weights.get(row)
        if old is None:
            self.rows.append(row)
            old = 0
        self.weights[row] = weight
        delta = weight - old
        self.count += delta
        self._dirty = True
        return delta

    def locate(self, position: int) -> Tuple[Tuple, int]:
        """Map a position in ``[0, count)`` to ``(row, offset_within_row)``."""
        if self._dirty:
            self._prefix = []
            running = 0
            for row in self.rows:
                running += self.weights[row]
                self._prefix.append(running)
            self._dirty = False
        index = bisect.bisect_right(self._prefix, position)
        previous = self._prefix[index - 1] if index else 0
        return self.rows[index], position - previous


class ExactTreeIndex:
    """Exact-count index over one rooted join tree (the SJoin index)."""

    def __init__(self, tree: RootedJoinTree, database: Database) -> None:
        self.tree = tree
        self.query = tree.query
        self.database = database
        self.root = tree.root
        self._entries: Dict[str, Dict[Tuple, _ExactEntry]] = {
            name: {} for name in tree.topological_order()
        }
        self.propagations = 0
        for name in tree.topological_order():
            node = tree.node(name)
            relation = database[name]
            for child in node.children:
                relation.index_on(tree.key_of(child))

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _exact(self, node: str, key: Tuple) -> int:
        entry = self._entries[node].get(key)
        return entry.count if entry is not None else 0

    def _row_weight(self, node: str, row: Tuple) -> int:
        schema = self.query.relation(node)
        product = 1
        for child in self.tree.children_of(node):
            key = schema.project(row, self.tree.key_of(child))
            product *= self._exact(child, key)
            if product == 0:
                return 0
        return product

    def _key_of(self, node: str, row: Tuple) -> Tuple:
        key_attrs = self.tree.key_of(node)
        if not key_attrs:
            return ()
        return self.query.relation(node).project(row, key_attrs)

    # ------------------------------------------------------------------ #
    # Maintenance — every count change propagates immediately
    # ------------------------------------------------------------------ #
    def insert_row(self, relation: str, row: Tuple) -> None:
        """Register a newly inserted row (database already contains it)."""
        if relation == self.root:
            return  # the root needs no entries; delta batches read the children
        self._set_row_weight(relation, tuple(row), self._row_weight(relation, tuple(row)))

    def _set_row_weight(self, node: str, row: Tuple, weight: int) -> None:
        key = self._key_of(node, row)
        entry = self._entries[node].get(key)
        if entry is None:
            entry = _ExactEntry()
            self._entries[node][key] = entry
        delta = entry.set_weight(row, weight)
        if delta == 0:
            return
        parent = self.tree.parent_of(node)
        if parent is None or parent == self.root:
            # The root keeps no entries; its delta batches read the children
            # counts directly, so there is nothing to propagate into.
            return
        # Exact counts changed: every matching parent row must be re-weighted.
        key_attrs = self.tree.key_of(node)
        for parent_row in self.database[parent].semijoin(key_attrs, key):
            self.propagations += 1
            self._set_row_weight(parent, parent_row, self._row_weight(parent, parent_row))

    # ------------------------------------------------------------------ #
    # Exact delta batches (no dummies)
    # ------------------------------------------------------------------ #
    def delta_batch_size(self, row: Tuple) -> int:
        return self._row_weight(self.root, tuple(row))

    def delta_batch(self, row: Tuple) -> FunctionBatch:
        row = tuple(row)
        return FunctionBatch(self.delta_batch_size(row), partial(self._retrieve_full, self.root, row))

    def _retrieve_full(self, node: str, row: Tuple, position: int) -> Optional[dict]:
        schema = self.query.relation(node)
        children = self.tree.children_of(node)
        result = schema.row_to_mapping(row)
        if not children:
            return result if position == 0 else None
        radices = []
        keys = []
        for child in children:
            key = schema.project(row, self.tree.key_of(child))
            keys.append(key)
            radices.append(self._exact(child, key))
        coordinates: List[int] = []
        remaining = position
        for radix in reversed(radices):
            if radix == 0:
                return None
            coordinates.append(remaining % radix)
            remaining //= radix
        coordinates.reverse()
        for child, key, coordinate in zip(children, keys, coordinates):
            piece = self._retrieve_key(child, key, coordinate)
            if piece is None:
                return None
            result.update(piece)
        return result

    def _retrieve_key(self, node: str, key: Tuple, position: int) -> Optional[dict]:
        entry = self._entries[node].get(key)
        if entry is None or position >= entry.count:
            return None
        row, offset = entry.locate(position)
        return self._retrieve_full(node, row, offset)


class SJoin(PerTupleBatchMixin):
    """The SJoin baseline: exact-count index + reservoir over delta batches.

    Mirrors the public interface of :class:`repro.core.reservoir_join.ReservoirJoin`
    (``insert``/``process``/``sample``/``statistics``) so the benchmarks can
    treat both samplers uniformly.  ``SJoin_opt`` of the paper is obtained
    with ``foreign_key=True``.  ``insert_batch`` comes from
    :class:`~repro.core.backend.PerTupleBatchMixin`: SJoin's exact counters
    must be repropagated on every change, so grouping a chunk buys nothing
    structurally and the validated per-tuple loop is the honest bulk path.
    """

    def __init__(
        self,
        query: JoinQuery,
        k: int,
        rng: Optional[random.Random] = None,
        foreign_key: bool = False,
    ) -> None:
        self.original_query = query
        self.k = k
        self._rng = rng if rng is not None else random.Random()
        self._combiner: Optional[ForeignKeyCombiner] = None
        working_query = query
        if foreign_key:
            combiner = ForeignKeyCombiner(query)
            if combiner.is_effective:
                self._combiner = combiner
                working_query = combiner.rewritten_query
        if not working_query.is_acyclic():
            raise ValueError("SJoin supports acyclic joins only")
        self.query = working_query
        self.database = Database(working_query)
        join_tree = JoinTree(working_query)
        self.trees: Dict[str, ExactTreeIndex] = {
            name: ExactTreeIndex(join_tree.rooted_at(name), self.database)
            for name in working_query.relation_names
        }
        self.reservoir = BatchedPredicateReservoir(k, rng=self._rng)
        self.tuples_processed = 0
        self.duplicates_ignored = 0

    # ------------------------------------------------------------------ #
    # Streaming interface
    # ------------------------------------------------------------------ #
    def insert(self, relation: str, row: Sequence) -> None:
        """Process one stream tuple (original relation names)."""
        if self._combiner is not None:
            for item in self._combiner.process(StreamTuple(relation, tuple(row))):
                self._insert_rewritten(item.relation, item.row)
        else:
            self._insert_rewritten(relation, tuple(row))
        # Counted only once absorbed: a rejected tuple leaves no trace.
        self.tuples_processed += 1

    def _insert_rewritten(self, relation: str, row: tuple) -> None:
        if not self.database.insert(relation, row):
            self.duplicates_ignored += 1
            return
        for tree in self.trees.values():
            tree.insert_row(relation, row)
        tree = self.trees[relation]
        self.reservoir.process_deferred_many(
            [tree.delta_batch_size(row)], partial(tree._retrieve_full, tree.root), [row]
        )

    def process(self, stream) -> "SJoin":
        """Process a whole stream of :class:`StreamTuple`."""
        for item in stream:
            self.insert(item.relation, item.row)
        return self

    # ------------------------------------------------------------------ #
    # Results and statistics
    # ------------------------------------------------------------------ #
    @property
    def sample(self) -> List[dict]:
        """The current reservoir."""
        return self.reservoir.sample

    @property
    def sample_size(self) -> int:
        return len(self.reservoir)

    @property
    def propagations(self) -> int:
        """Exact-count propagation steps performed so far."""
        return sum(tree.propagations for tree in self.trees.values())

    @property
    def total_join_size(self) -> int:
        """Exact ``|Q(R)|`` so far (a by-product of the exact index)."""
        return self.reservoir.items_total

    def statistics(self) -> Dict[str, int]:
        return {
            "tuples_processed": self.tuples_processed,
            "duplicates_ignored": self.duplicates_ignored,
            "stored_tuples": self.database.size,
            "simulated_stream_length": self.reservoir.items_total,
            "items_examined": self.reservoir.items_examined,
            "sample_size": self.sample_size,
            "propagations": self.propagations,
        }
