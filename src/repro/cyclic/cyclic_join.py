"""Reservoir sampling over cyclic joins via GHDs (Section 5).

The cyclic algorithm reduces to the acyclic one: pick a GHD of the query,
materialise each bag's sub-join incrementally, and run the acyclic
reservoir-sampling machinery over the *bag query* (one relation per bag,
joined along the GHD tree).  When a base tuple ``t`` arrives in relation
``R_e``:

1. every bag whose attribute set intersects ``e`` receives the projection of
   ``t`` and its materialised sub-join grows by the bag-level delta;
2. the new bag tuples of every bag except one designated *covering* bag
   (a bag with ``e ⊆ λ_u``) are pushed into the acyclic index silently;
3. the new bag tuples of the covering bag are pushed one by one, each
   followed by its delta batch and a reservoir update — exactly lines 5-7 of
   Algorithm 6, as the paper prescribes.

Every new join result of ``Q`` uses the new tuple at ``R_e`` and therefore a
*new* tuple of the covering bag, so it is counted exactly once; results that
only involve previously seen bag tuples already had their chance to be
sampled.  Total running time is ``O(N^w log N + k log N log(N/k))`` where
``w`` is the width of the GHD used.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.batch_reservoir import BatchedPredicateReservoir
from ..index.dynamic_index import DynamicJoinIndex
from ..relational.database import Database
from ..relational.join import _relation_order
from ..relational.query import JoinQuery
from ..relational.schema import RelationSchema, canonical_attrs, tuple_getter
from ..relational.stream import StreamTuple, validated_items
from .ghd import GHD, ghd_for


class _BagDeltaPlan:
    """Precomputed enumeration plan for one (bag, base relation) pair.

    The bulk ``insert_batch`` path evaluates the same bag-level delta query
    for every tuple of a relation group, so everything that does not depend
    on the arriving row — the member relation, the projection getter, the
    backtracking order with its per-step bound/free attribute split — is
    resolved once at construction time.  :meth:`deltas` then enumerates the
    same results, in the same order, as the generic
    ``delta_results(subquery, database, member, projection)`` followed by
    ``bag_schema.row_from_mapping`` (``tests/test_cyclic_join.py`` checks
    this against that oracle).
    """

    __slots__ = ("bag_name", "member_relation", "member_attrs", "project", "steps", "bag_attrs")

    def __init__(self, bag_name, member_relation, member_attrs, project, steps, bag_attrs):
        self.bag_name = bag_name
        self.member_relation = member_relation
        self.member_attrs = member_attrs
        self.project = project
        self.steps = steps
        self.bag_attrs = bag_attrs

    def deltas(self, row: tuple) -> List[tuple]:
        """New bag tuples caused by ``row``; empty for a duplicate projection."""
        projection = self.project(row)
        if not self.member_relation.insert(projection):
            return []
        assignment = dict(zip(self.member_attrs, projection))
        out: List[tuple] = []
        self._extend(0, assignment, out)
        return out

    def _extend(self, depth: int, assignment: dict, out: List[tuple]) -> None:
        if depth == len(self.steps):
            out.append(tuple(assignment[a] for a in self.bag_attrs))
            return
        relation, bound_attrs, free = self.steps[depth]
        if bound_attrs:
            key = tuple(assignment[a] for a in bound_attrs)
            candidates = relation.semijoin(bound_attrs, key)
        else:
            candidates = relation.rows
        if not candidates:
            return
        for candidate in candidates:
            for attr, position in free:
                assignment[attr] = candidate[position]
            self._extend(depth + 1, assignment, out)
        for attr, position in free:
            del assignment[attr]


class CyclicReservoirJoin:
    """Maintain ``k`` uniform samples of a (possibly cyclic) join over a stream.

    Parameters
    ----------
    query:
        Any natural join query.  Acyclic queries work too (the GHD degenerates
        to the join tree and the behaviour matches :class:`ReservoirJoin`).
    k:
        Reservoir size.
    ghd:
        Optional hand-crafted :class:`GHD`; by default one is constructed
        automatically (see :func:`repro.cyclic.ghd.ghd_for`).
    grouping:
        Enable the grouping optimisation inside the acyclic index over bags.

    Every tuple enters through :meth:`insert_batch`; :meth:`insert` is a
    one-item chunk.
    """

    def __init__(
        self,
        query: JoinQuery,
        k: int,
        rng: Optional[random.Random] = None,
        ghd: Optional[GHD] = None,
        grouping: bool = False,
    ) -> None:
        self.query = query
        self.k = k
        self._rng = rng if rng is not None else random.Random()
        self.ghd = ghd_for(query, ghd)
        self.bag_query = self.ghd.bag_query()
        self.index = DynamicJoinIndex(
            self.bag_query, grouping=grouping, maintain_root=False
        )
        self.reservoir = BatchedPredicateReservoir(k, rng=self._rng)
        self._seen = Database(query)  # set-semantics dedup of base tuples
        self._chosen_bag: Dict[str, str] = {
            name: self.ghd.covering_bag(name) for name in query.relation_names
        }
        self._bag_databases: Dict[str, Database] = {}
        # (bag, base relation) -> the base relation's projection onto the bag.
        member_of: Dict[Tuple[str, str], RelationSchema] = {}
        for bag_name, bag_attrs in self.ghd.bags.items():
            bag_attr_set = set(bag_attrs)
            members: List[RelationSchema] = []
            for schema in query.relations:
                shared = canonical_attrs(schema.attr_set & bag_attr_set)
                if not shared:
                    continue
                member = RelationSchema(f"{bag_name}:{schema.name}", shared)
                members.append(member)
                member_of[(bag_name, schema.name)] = member
            subquery = JoinQuery(f"{query.name}:{bag_name}", members)
            self._bag_databases[bag_name] = Database(subquery)
        self._delta_plans: Dict[str, List[_BagDeltaPlan]] = {
            name: [
                self._build_delta_plan(bag_name, member_of[(bag_name, name)], name)
                for bag_name in self.ghd.bags_touching(name)
            ]
            for name in query.relation_names
        }
        self.tuples_processed = 0
        self.duplicates_ignored = 0
        self.bag_tuples_inserted = 0

    def _build_delta_plan(
        self, bag_name: str, member: RelationSchema, relation: str
    ) -> _BagDeltaPlan:
        """Resolve the batch-invariant parts of one bag's delta query.

        ``member`` is ``relation``'s projection onto the bag's attributes.
        """
        database = self._bag_databases[bag_name]
        subquery = database.query
        schema = self.query.relation(relation)
        order = _relation_order(subquery, first=member.name)
        bound = set(member.attrs)
        steps: List[Tuple[object, Tuple[str, ...], Tuple[Tuple[str, int], ...]]] = []
        for name in order[1:]:
            member_schema = subquery.relation(name)
            bound_attrs = canonical_attrs(a for a in member_schema.attrs if a in bound)
            free = tuple(
                (attr, position)
                for position, attr in enumerate(member_schema.attrs)
                if attr not in bound
            )
            steps.append((database[name], bound_attrs, free))
            bound.update(member_schema.attrs)
        return _BagDeltaPlan(
            bag_name=bag_name,
            member_relation=database[member.name],
            member_attrs=member.attrs,
            project=tuple_getter(schema.positions_of(member.attrs)),
            steps=steps,
            bag_attrs=self.bag_query.relation(bag_name).attrs,
        )

    # ------------------------------------------------------------------ #
    # Streaming interface
    # ------------------------------------------------------------------ #
    def insert(self, relation: str, row: Sequence) -> None:
        """Process one base-stream tuple: a one-item :meth:`insert_batch`."""
        self.insert_batch([(relation, row)])

    def insert_batch(self, items: Iterable) -> int:
        """Process a chunk of base-stream tuples through the bulk fast path.

        The API matches ``ReservoirJoin.insert_batch``: tuples naming an
        unknown relation raise ``KeyError`` and rows of the wrong arity raise
        ``ValueError``, in both cases *before* any state is modified, so a
        failed call leaves the sampler untouched.  The return value counts
        new (non-duplicate) base tuples.

        Semantics: the chunk is grouped by relation (set-semantics dedup and
        bag membership are order-independent within a chunk, so any fixed
        processing order yields a valid sequentialisation); bag-level deltas
        are then computed row by row against the evolving bag databases via
        precomputed enumeration plans, and all resulting bag tuples are
        absorbed in bulk — the GHD bag indexes are updated once per touched
        bag per batch (:meth:`DynamicJoinIndex.insert_rows`) and whole-batch
        skip decisions run through
        ``BatchedPredicateReservoir.process_deferred_many``.  Non-covering
        bag tuples are inserted silently first; then, bag by bag, the new
        covering tuples are inserted and their delta batches offered to the
        reservoir.  Every join result first completed by the chunk uses at
        least one new covering-bag tuple (its projection onto the covering
        bag of any of its new base tuples) and is offered exactly once — in
        the batch of the last of its covering-bag tuples in processing order
        — so the reservoir is a uniform sample without replacement of the
        join results of the stream prefix ending at the chunk boundary.
        A single-tuple chunk is Algorithm 6 as the paper states it, and is
        what :meth:`insert` runs.
        """
        pairs = validated_items(items, self.query)
        if not pairs:
            return 0
        self.tuples_processed += len(pairs)
        # Group by relation (set-semantics dedup commutes across relations)
        # so the dedup and the delta plans amortise over each group.
        by_relation: Dict[str, List[tuple]] = {}
        for relation, row in pairs:
            by_relation.setdefault(relation, []).append(row)
        # Bag-level deltas row by row (they depend on the evolving bag
        # databases); group the produced bag tuples by bag, keeping covering
        # tuples (one group per bag, in first-touch order) apart from the
        # silently inserted rest.
        inserted = 0
        other_rows: Dict[str, List[tuple]] = {}
        chosen_rows: Dict[str, List[tuple]] = {}
        chosen_order: List[str] = []
        chosen_bag = self._chosen_bag
        for relation, rows in by_relation.items():
            new_rows = self._seen[relation].insert_many(rows)
            self.duplicates_ignored += len(rows) - len(new_rows)
            if not new_rows:
                continue
            inserted += len(new_rows)
            chosen = chosen_bag[relation]
            for plan in self._delta_plans[relation]:
                bag_name = plan.bag_name
                if bag_name == chosen:
                    bucket = chosen_rows.get(bag_name)
                    if bucket is None:
                        bucket = chosen_rows[bag_name] = []
                        chosen_order.append(bag_name)
                else:
                    bucket = other_rows.setdefault(bag_name, [])
                deltas = plan.deltas
                for row in new_rows:
                    bag_rows = deltas(row)
                    if bag_rows:
                        bucket.extend(bag_rows)
        # Non-covering bags first: one bulk index update per touched bag.
        insert_rows = self.index.insert_rows
        for bag_name, rows in other_rows.items():
            self.bag_tuples_inserted += len(insert_rows(bag_name, rows))
        # Covering bags last: bulk-insert each bag's new tuples, then fold
        # their delta batches into the reservoir with whole-batch skips.
        reservoir = self.reservoir
        trees = self.index.trees
        for bag_name in chosen_order:
            new_bag_rows = insert_rows(bag_name, chosen_rows[bag_name])
            self.bag_tuples_inserted += len(new_bag_rows)
            if not new_bag_rows:
                continue
            tree = trees[bag_name]
            reservoir.process_deferred_many(
                tree.delta_batch_sizes(new_bag_rows), tree.delta_retrieve(), new_bag_rows
            )
        return inserted

    def process(self, stream: Iterable[StreamTuple]) -> "CyclicReservoirJoin":
        """Process a whole stream of :class:`StreamTuple`."""
        for item in stream:
            self.insert(item.relation, item.row)
        return self

    # ------------------------------------------------------------------ #
    # Results and statistics
    # ------------------------------------------------------------------ #
    @property
    def sample(self) -> List[dict]:
        """The current reservoir of join results (attr -> value dicts)."""
        return self.reservoir.sample

    @property
    def sample_size(self) -> int:
        return len(self.reservoir)

    @property
    def width(self) -> float:
        """Fractional width of the GHD in use."""
        return self.ghd.width()

    def statistics(self) -> Dict[str, object]:
        return {
            "tuples_processed": self.tuples_processed,
            "duplicates_ignored": self.duplicates_ignored,
            "bag_tuples_inserted": self.bag_tuples_inserted,
            "simulated_stream_length": self.reservoir.items_total,
            "items_examined": self.reservoir.items_examined,
            "sample_size": self.sample_size,
            "ghd_width": self.width,
            "propagations": self.index.propagations,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CyclicReservoirJoin({self.query.name!r}, k={self.k}, "
            f"bags={list(self.ghd.bags)})"
        )
