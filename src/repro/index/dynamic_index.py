"""The full dynamic index ``L`` of Theorem 4.2.

:class:`DynamicJoinIndex` keeps one rooted view of an acyclic query per
relation (each rooted at that relation) over a shared
:class:`~repro.relational.database.Database`.  It supports, per Theorem 4.2:

1. ``insert`` — add a tuple to the database and update the index in
   ``O(log N)`` amortised time;
2. ``sample`` / ``total_weight`` — uniform sampling from the *full* current
   join in ``O(log N)`` expected time (the dynamic sampling-over-joins
   problem);
3. ``delta_batch_size`` and the rooted views' ``delta_retrieve`` — the
   size of, and positional access to, the Ω(1)-dense array
   ``ΔJ ⊇ ΔQ(R, t)`` of the delta query of a newly inserted tuple, which is
   what the reservoir-sampling-over-joins algorithm consumes.

The bucket families are keyed by directed join-tree edge, not by rooting.
The family of ``p → c`` weighs ``c``'s entities by the families on ``c``'s
side of the tree only, so every rooting that has ``c`` below ``p`` reads the
same one; it is kept once, as junction-tree message passing keeps one
message per directed edge.  IndexUpdate runs once per relation run: it
re-weights every family of an edge into the relation, then pushes each
``c̃nt`` change of edge ``p → c`` to every maintained edge into ``p`` but
``c → p``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..relational.database import Database
from ..relational.jointree import JoinTree
from ..relational.query import JoinQuery
from ..relational.schema import canonical_attrs
from .buckets import BucketFamily
from .counters import next_pow2
from .grouping import GroupView, grouping_attrs
from .tree_index import TreeIndex, _key_getter, _NodePlan, _product

#: A directed join-tree edge ``(parent, child)``; ``(None, root)`` keys the
#: root family of the rooting at ``root``.
Edge = Tuple[Optional[str], str]


class DynamicJoinIndex:
    """Dynamic index for sampling over an acyclic join (Section 4).

    Parameters
    ----------
    query:
        The acyclic join query.  A ``ValueError`` is raised for cyclic
        queries — use :class:`repro.cyclic.CyclicReservoirJoin` for those.
    grouping:
        Enable the grouping optimisation of Section 4.4.
    maintain_root:
        Maintain the root family (key ``()``) of the tree rooted at the
        query's first relation, which answers :meth:`sample` and
        :meth:`total_weight`.  The pure reservoir-sampling pipeline does not
        need it; disabling saves a constant factor.
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
        adjacency = join_tree.adjacency
        #: One family dict per directed edge, and one per maintained root;
        #: the plans maintain exactly the families this dict holds.
        self.families: Dict[Edge, Dict[Tuple, BucketFamily]] = {}
        if maintain_root:
            self.families[None, self.sampling_root] = {}
        for child in query.relation_names:
            for parent in adjacency[child]:
                self.families[parent, child] = {}
        # One group view per relation: a non-root node groups on its keys to
        # all of its neighbours, whichever rooting it sits in.
        self._group_views: Dict[str, Optional[GroupView]] = {}
        for name in query.relation_names:
            attrs = None
            if grouping and adjacency[name]:
                attrs = grouping_attrs(join_tree.rooted_at(adjacency[name][0]), name)
            self._group_views[name] = GroupView(self.database[name], attrs) if attrs else None
        self.tuples_inserted = 0
        self.duplicates_ignored = 0
        self.tuples_deleted = 0
        self.deletes_ignored = 0
        #: number of entity re-weightings performed inside propagation loops
        #: (the quantity reported in the paper's Figure 9 table).
        self.propagations = 0
        self._compile()

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #
    def _compile(self) -> None:
        """Compile one plan per directed edge, the runs and the rooted views.

        Every plan is built once and shared: the views of all rootings and
        IndexUpdate's fan-out read the same records.  The plans, runs and
        views are derived state, which :meth:`__getstate__` drops; on
        unpickling the relation indexes they look up exist already and
        ``index_on`` returns them.
        """
        join_tree = self._join_tree
        adjacency = join_tree.adjacency
        database = self.database
        families = self.families
        names = self.query.relation_names
        attr_sets = {name: frozenset(self.query.relation(name).attrs) for name in names}
        #: key(c) below p, for both directions of every edge.
        shared = {
            (parent, child): canonical_attrs(attr_sets[parent] & attr_sets[child])
            for child in names
            for parent in adjacency[child]
        }
        plans: Dict[Edge, _NodePlan] = {}
        for child in names:
            relation = database[child]
            group_view = self._group_views[child]
            for parent in (None, *adjacency[child]):
                view = group_view if parent is not None else None
                plan = plans[parent, child] = _NodePlan()
                plan.attrs = relation.schema.attrs
                plan.families = families.get((parent, child))
                plan.view = view
                if view is None:
                    plan.members = None
                    plan.family_key = _key_getter(relation.schema, shared.get((parent, child), ()))
                else:
                    plan.members = relation.index_on(view.attrs).lookup
                    plan.family_key = _key_getter(view.relation.schema, shared[parent, child])
        for (parent, child), plan in plans.items():
            view = plan.view
            row_schema = database[child].schema
            entity_schema = view.relation.schema if view is not None else row_schema
            children = []
            row_children = []
            for other in adjacency[child]:
                if other != parent:
                    key_attrs = shared[child, other]
                    lookup = families[child, other].get
                    child_plan = plans[child, other]
                    children.append((lookup, _key_getter(entity_schema, key_attrs), child_plan))
                    if view is not None:
                        row_children.append((lookup, _key_getter(row_schema, key_attrs), child_plan))
            plan.children = tuple(children)
            plan.row_children = tuple(row_children) if view is not None else plan.children
        runs: Dict[str, Tuple[_NodePlan, ...]] = {name: () for name in names}
        for (parent, child), plan in plans.items():
            if plan.families is not None:
                runs[child] += (plan,)
            targets = []
            if parent is not None:
                key_attrs = shared[parent, child]
                for above in (None, *adjacency[parent]):
                    target = plans[above, parent]
                    if above == child or target.families is None:
                        continue
                    view = target.view
                    entity_relation = view.relation if view is not None else database[parent]
                    targets.append((
                        # The index the propagation loops walk, created here once.
                        entity_relation.index_on(key_attrs).lookup,
                        tuple(entry for entry in target.children if entry[2] is not plan),
                        view.feq_approx if view is not None else None,
                        target,
                    ))
            plan.targets = tuple(targets)
        self._runs = runs
        self.trees: Dict[str, TreeIndex] = {
            name: TreeIndex(join_tree, name, database, plans[None, name]) for name in names
        }

    def __getstate__(self) -> dict:
        """The pickled state: no plans or views, and every family once, as
        its plain ``(cnt, runs)`` tuple, which pickles without a Python call
        per family."""
        state = self.__dict__.copy()
        del state["_runs"], state["trees"]
        state["families"] = {
            edge: {key: family.__getstate__() for key, family in families.items()}
            for edge, families in self.families.items()
        }
        return state

    def __setstate__(self, state: dict) -> None:
        """Rebuild every family from its pickled state, then the plans."""
        self.__dict__.update(state)
        for families in self.families.values():
            for key, family_state in families.items():
                family = families[key] = BucketFamily.__new__(BucketFamily)
                family.__setstate__(family_state)
        self._compile()

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
        self._update(relation, (row,), 1)
        return True

    def insert_rows(self, relation: str, rows: Iterable[Sequence]) -> List[tuple]:
        """Bulk-insert several rows into one relation; returns the new rows.

        Duplicates (within the batch or against the database) are dropped and
        counted in ``duplicates_ignored``.  The index is updated with one run
        instead of one call per tuple; every family ends with the ``cnt``,
        ``c̃nt`` and bucket members repeated :meth:`insert` gives, and a
        family whose count crosses several power-of-two boundaries within
        the run pushes its ``c̃nt`` change on once, not once per doubling.
        A ``KeyError`` is raised for a relation that is not part of the
        query.
        """
        target = self.database[relation]
        rows = [tuple(row) for row in rows]
        new_rows = target.insert_many(rows)
        self.duplicates_ignored += len(rows) - len(new_rows)
        if new_rows:
            self.tuples_inserted += len(new_rows)
            self._update(relation, new_rows, 1)
        return new_rows

    def delete(self, relation: str, row: Sequence) -> bool:
        """Delete a tuple; returns whether it was present.

        The exact mirror of :meth:`insert`: the database (and every
        maintained relation index / group view) is updated first, then the
        same update runs with the opposite sign, so each entity's weight
        drops to the value implied by the post-delete state and the ``c̃nt``
        decrease travels the way an increase does.  Deleting an absent row
        is a counted no-op — turnstile tombstone semantics (a delete
        arriving before its insert annihilates the later insert) live in
        ``repro.core.turnstile``, above this layer.

        Note on amortisation: with deletions the approximate counters can
        now *decrease*, so the insert-only ``O(log N)`` amortised update
        bound (each counter doubles O(log N) times) no longer holds against
        an adversary that oscillates a counter across a power-of-two
        boundary.  Correctness — ``cnt`` exact, ``c̃nt = next_pow2(cnt)``,
        uniformity of retrieval — is unaffected; see
        ``docs/ARCHITECTURE.md``, "Turnstile & Windowed Sampling".
        """
        row = tuple(row)
        if not self.database.delete(relation, row):
            self.deletes_ignored += 1
            return False
        self.tuples_deleted += 1
        self._update(relation, (row,), -1)
        return True

    def _update(self, relation: str, rows: Sequence[Tuple], sign: int) -> None:
        """IndexUpdate: distinct ``rows`` entered (``sign = 1``) or left (``-1``).

        First each touched entity moves once in the family of every
        maintained edge into ``relation``, to the product of the ``c̃nt``
        of the edge's children times a scale: a full row from scale 0 to 1
        (Algorithm 7; 1 to 0 when it leaves), a group from its ``f̃eq``
        before the run to its ``f̃eq`` after it (Algorithm 10, telescoped
        over the run's rows of the group; the group view already holds the
        whole run).  Then the ``c̃nt`` changes travel away from the relation
        one edge per round (lines 8-11 of Algorithm 7): a change under edge
        ``p → c`` re-weights the entities of ``p`` in the family of every
        maintained edge into ``p`` except ``c → p``, and the next round does
        the same for those.  A family that a deletion empties is pruned,
        root families included, so windowed workloads (which eventually
        delete everything) do not leak dict entries; lookups treat a
        missing family as ``cnt = approx = 0``.

        One pass per edge is exact: a family is reached along exactly one
        edge in a run (the tree has one path to the relation), and every
        other factor of a weight (a sibling family, whose side of the tree
        does not hold the relation, and ``f̃eq`` of another relation) does
        not change during the run.
        """
        frontier = []
        groups = None
        for plan in self._runs[relation]:
            view = plan.view
            if view is None:
                entities = rows
                scales = None
                scale_old, scale_new = (0, 1) if sign > 0 else (1, 0)
            else:
                if groups is None:
                    counts: Dict[Tuple, int] = {}
                    for row in rows:
                        group = view.group_of(row)
                        counts[group] = counts.get(group, 0) + sign
                    groups = {}
                    for group, change in counts.items():
                        feq = view.feq(group)
                        scale = next_pow2(feq - change), next_pow2(feq)
                        if scale[0] != scale[1]:
                            groups[group] = scale
                entities = scales = groups
            children = plan.children
            families = plan.families
            family_key = plan.family_key
            before: Dict[Tuple, int] = {}
            for entity in entities:
                weight = _product(children, entity)
                # Zero-weight entities are never stored in a family.
                if weight:
                    if scales is not None:
                        scale_old, scale_new = scales[entity]
                    key = family_key(entity)
                    family = families.get(key)
                    if family is None:
                        family = families[key] = BucketFamily()
                    before.setdefault(key, family.approx)
                    family.reweight(entity, scale_old * weight, scale_new * weight)
            if before:
                frontier.append((plan, before))
        propagations = 0
        while frontier:
            next_frontier = []
            for plan, before in frontier:
                targets = plan.targets
                if not targets and sign > 0:
                    continue  # nothing beyond to update, and inserts empty no family
                families = plan.families
                changed = []
                for key, old_approx in before.items():
                    new_approx = families[key].approx
                    if not new_approx:
                        del families[key]
                    if new_approx != old_approx:
                        changed.append((key, old_approx, new_approx))
                if not changed:
                    continue
                for lookup, siblings, feq_approx, target in targets:
                    target_key = target.family_key
                    target_families = target.families
                    target_before: Dict[Tuple, int] = {}
                    for key, old_approx, new_approx in changed:
                        for entity in lookup(key):
                            propagations += 1
                            others = _product(siblings, entity)
                            if feq_approx is not None:
                                others *= feq_approx(entity)
                            if others:
                                entity_key = target_key(entity)
                                family = target_families.get(entity_key)
                                if family is None:
                                    family = target_families[entity_key] = BucketFamily()
                                target_before.setdefault(entity_key, family.approx)
                                family.reweight(entity, old_approx * others, new_approx * others)
                    if target_before:
                        next_frontier.append((target, target_before))
            frontier = next_frontier
        if propagations:
            self.propagations += propagations

    # ------------------------------------------------------------------ #
    # Delta batches (operation (3) of Theorem 4.2)
    # ------------------------------------------------------------------ #
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
    # Statistics and invariants
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of tuples currently stored (``N``)."""
        return self.database.size

    def check_invariants(self) -> None:
        """Raise ``RuntimeError`` unless every family's ``cnt`` is the sum
        of its bucket weights and its ``c̃nt`` is ``next_pow2(cnt)``.

        No ground truth is recounted; the tests' oracle
        (``tests/oracles.py``) adds the Lemma 4.4 bounds against one.
        """
        for edge, families in self.families.items():
            for key, family in families.items():
                if family.cnt != family.weight_sum():
                    raise RuntimeError(
                        f"cnt mismatch at {edge}/{key}: {family.cnt} != {family.weight_sum()}"
                    )
                if family.approx != next_pow2(family.cnt):
                    raise RuntimeError(f"c̃nt at {edge}/{key} is not next_pow2(cnt)")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicJoinIndex({self.query.name!r}, N={self.size}, "
            f"grouping={self.grouping})"
        )

