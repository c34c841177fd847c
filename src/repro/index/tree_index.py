"""The dynamic index of one rooted join tree (Section 4.3).

This module implements, for a single rooted join tree ``T``:

* ``IndexUpdate``            (Algorithm 7, with the grouping variant of
  Algorithm 10 folded in) — :meth:`TreeIndex._update`, one engine behind
  ``insert_row``, ``insert_rows`` and ``delete_row`` (a per-row call is a
  one-row run);
* ``BatchGenerate``          (Algorithm 8) — :meth:`TreeIndex.delta_batch`,
  returned as a lazy, positionally addressable batch that is never
  materialised;
* ``Retrieve``               (Algorithm 9 / 11) — :meth:`TreeIndex._retrieve`,
  one iterative pre-order walk of the compiled plan behind the batch and
  behind full-query sampling.

For every non-root node ``e`` (and, optionally, the root) and every key tuple
``t ∈ π_key(e) R_e`` the index keeps a :class:`~repro.index.buckets.BucketFamily`
whose entities are either the tuples of ``R_e ⋉ t`` or, when the grouping
optimisation applies, the distinct projections onto the node's join
attributes.  Every entity's weight is the product of the power-of-two
approximate counts of its children (times ``f̃eq`` for groups), so weights are
powers of two and only change when an approximate counter doubles — the
source of the ``O(log N)`` amortised update bound.
"""

from __future__ import annotations

import random
from functools import partial
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.skippable import FunctionBatch
from ..relational.database import Database
from ..relational.jointree import RootedJoinTree
from ..relational.query import JoinQuery
from .buckets import BucketFamily
from .counters import next_pow2
from .grouping import GroupView, grouping_attrs


class _NodePlan:
    """Everything the hot paths need about one node, resolved once.

    ``children`` and ``siblings`` hold ``(family lookup, key getter, child
    plan)`` triples whose getters project the node's *entities* (group
    tuples when the node is grouped); ``row_children`` projects its full rows
    and is ``children`` itself when the node is not grouped.  ``parent`` is
    the plan that :meth:`TreeIndex._update` pushes ``c̃nt`` changes into,
    or ``None`` when nothing above is maintained; ``parent_lookup`` finds the
    parent entities of a key, and ``siblings`` and ``feq_approx`` give the
    other factors of their weights.
    """

    __slots__ = (
        "attrs", "families", "view", "members", "maintained", "family_key",
        "children", "row_children", "parent", "parent_lookup", "siblings",
        "feq_approx",
    )


def _key_getter(schema, attrs):
    """``row -> schema.project(row, attrs)`` for the tuples the index stores.

    ``attrs`` is a canonical key.  A one-attribute key is a one-item slice
    and the empty key an empty one, so every key projection on the hot
    paths runs at C speed.
    """
    if len(attrs) == 1:
        position = schema.attrs.index(attrs[0])
        return itemgetter(slice(position, position + 1))
    return itemgetter(*schema.positions_of(attrs)) if attrs else _NO_KEY


_NO_KEY = itemgetter(slice(0, 0))


def _product(children, entity) -> int:
    """Π over ``children`` of the approximate counts at the entity's keys."""
    product = 1
    for get_family, key_of, _ in children:
        family = get_family(key_of(entity))
        if family is None:
            return 0
        product *= family.approx
        if product == 0:
            return 0
    return product


class TreeIndex:
    """Dynamic sampling index over one rooted join tree.

    Parameters
    ----------
    tree:
        The rooted join tree this index is responsible for.  Tuples inserted
        into the *root* relation have their delta batches generated by this
        index; tuples inserted anywhere else only update it.
    database:
        The shared database instance (one :class:`Relation` per query
        relation).  The database must contain a row *before*
        :meth:`insert_row` is called for it.
    grouping:
        Enable the grouping optimisation of Section 4.4.
    maintain_root:
        Also maintain a bucket family at the root (key ``()``), which makes
        the index capable of drawing uniform samples from the *full* current
        join (the dynamic sampling-over-joins problem, operation (2) of
        Theorem 4.2) in addition to delta batches.
    """

    def __init__(
        self,
        tree: RootedJoinTree,
        database: Database,
        grouping: bool = False,
        maintain_root: bool = True,
    ) -> None:
        self.tree = tree
        self.query: JoinQuery = tree.query
        self.database = database
        self.root = tree.root
        self.maintain_root = maintain_root
        self.grouping_enabled = grouping
        self._families: Dict[str, Dict[Tuple, BucketFamily]] = {
            name: {} for name in tree.topological_order()
        }
        self._group_views: Dict[str, Optional[GroupView]] = {}
        #: number of parent-entity re-weightings performed inside propagation
        #: loops (the quantity reported in the paper's Figure 9 table).
        self.propagations = 0
        self._prepare(build=True)

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #
    def _prepare(self, build: bool) -> None:
        """Compile the per-node plans in one root-first walk of the tree.

        With ``build`` (at construction) the walk also creates the group
        views and relation indexes the index maintains; on unpickling they
        exist already and ``index_on`` returns them.  The plans are derived
        state: :meth:`__getstate__` drops them.
        """
        tree = self.tree
        families = self._families
        root = _NodePlan()
        root.parent = root.parent_lookup = root.feq_approx = None
        root.siblings = ()
        plans = {self.root: root}
        for name in tree.topological_order():
            node = tree.node(name)
            relation = self.database[name]
            if build:
                if relation.rows:
                    raise ValueError(
                        "TreeIndex must be built over an empty database; "
                        "replay pre-loaded tuples through insert_row instead"
                    )
                attrs = grouping_attrs(tree, name) if self.grouping_enabled else None
                self._group_views[name] = GroupView(relation, attrs) if attrs else None
            view = self._group_views[name]
            entity_relation = view.relation if view is not None else relation
            schema = entity_relation.schema
            plan = plans[name]
            plan.attrs = node.attrs
            plan.families = families[name]
            plan.view = view
            plan.members = relation.index_on(view.attrs).lookup if view is not None else None
            plan.maintained = maintained = not node.is_root or self.maintain_root
            plan.family_key = _key_getter(schema, node.key_attrs)
            children = []
            row_children = []
            for child in node.children:
                key_attrs = tree.node(child).key_attrs
                child_plan = plans[child] = _NodePlan()
                child_plan.parent = plan if maintained else None
                # The index the propagation loops walk, created here once.
                child_plan.parent_lookup = entity_relation.index_on(key_attrs).lookup
                child_plan.siblings = ()
                child_plan.feq_approx = view.feq_approx if view is not None else None
                entry = (families[child].get, _key_getter(schema, key_attrs), child_plan)
                children.append(entry)
                if view is not None:
                    row_getter = _key_getter(relation.schema, key_attrs)
                    row_children.append((entry[0], row_getter, child_plan))
            plan.children = tuple(children)
            plan.row_children = tuple(row_children) if view is not None else plan.children
            if len(children) > 1:
                for entry in children:
                    entry[2].siblings = tuple(other for other in children if other is not entry)
        self._plan = plans

    def __getstate__(self) -> dict:
        """The pickled state: no plans, and every family as its plain
        ``(cnt, runs)`` tuple, which pickles without a Python call per
        family."""
        state = self.__dict__.copy()
        del state["_plan"]
        state["_families"] = {
            node: {key: family.__getstate__() for key, family in families.items()}
            for node, families in self._families.items()
        }
        return state

    def __setstate__(self, state: dict) -> None:
        """Rebuild every family from its pickled state; checkpoints written
        before families pickled as tuples hold ``BucketFamily`` objects,
        which are kept as they are."""
        self.__dict__.update(state)
        for families in self._families.values():
            for key, family in families.items():
                if not isinstance(family, BucketFamily):
                    families[key] = BucketFamily.__new__(BucketFamily)
                    families[key].__setstate__(family)
        self._prepare(build=False)

    # ------------------------------------------------------------------ #
    # IndexUpdate (Algorithms 7 / 10)
    # ------------------------------------------------------------------ #
    def insert_row(self, relation: str, row: Tuple) -> None:
        """Register a row that has just been inserted into ``relation``.

        The shared database (and therefore every maintained relation index
        and group view) must already contain the row.  A one-row run of
        :meth:`_update`.
        """
        self._update(self._plan[relation], (tuple(row),), 1)

    def insert_rows(self, relation: str, rows: Sequence[Tuple]) -> None:
        """Register several rows just inserted into ``relation``, as one run.

        The shared database must already contain every row (and the rows
        must be deduplicated).  Every family ends with the ``cnt``,
        ``approx`` and bucket members that one :meth:`insert_row` per row
        gives; a family whose count crosses several power-of-two boundaries
        within the run pushes its ``c̃nt`` change up once, not once per
        doubling.
        """
        self._update(self._plan[relation], rows, 1)

    def delete_row(self, relation: str, row: Tuple) -> None:
        """Register a row that has just been deleted from ``relation``.

        The shared database (and therefore every maintained relation index
        and group view) must already have had the row removed.  This is the
        exact mirror of :meth:`insert_row`: a one-row run of :meth:`_update`
        with the opposite sign, so the entity's weight drops to the value
        implied by the post-delete state and the ``c̃nt`` decrease goes up
        the tree the way an increase does.

        Note on amortisation: with deletions the approximate counters can
        now *decrease*, so the insert-only ``O(log N)`` amortised update
        bound (each counter doubles O(log N) times) no longer holds against
        an adversary that oscillates a counter across a power-of-two
        boundary.  Correctness — ``cnt`` exact, ``c̃nt = next_pow2(cnt)``,
        uniformity of retrieval — is unaffected; see
        ``docs/ARCHITECTURE.md``, "Turnstile & Windowed Sampling".
        """
        self._update(self._plan[relation], (tuple(row),), -1)

    def _update(self, plan: _NodePlan, rows: Sequence[Tuple], sign: int) -> None:
        """IndexUpdate: distinct ``rows`` entered (``sign = 1``) or left (``-1``).

        First each touched entity of the node moves once, to the product of
        its children's ``c̃nt`` times a scale: a full row from scale 0 to 1
        (Algorithm 7; 1 to 0 when it leaves), a group from its ``f̃eq``
        before the run to its ``f̃eq`` after it (Algorithm 10, telescoped
        over the run's rows of the group; the group view already holds the
        whole run).  Then the ``c̃nt`` changes go up one level per round
        (lines 8-11 of Algorithm 7): every parent entity under a family
        whose ``c̃nt`` changed is re-weighted, and the next round does the
        same for the parent families.  A family that a deletion empties is
        pruned, at every level including the root, so windowed workloads
        (which eventually delete everything) do not leak dict entries;
        lookups treat a missing family as ``cnt = approx = 0``.

        One pass per level is exact: every other factor of a weight (the
        node's child families, and above it a parent entity's sibling
        families and ``f̃eq``) belongs to a relation other than the run's,
        so none changes during the run.
        """
        if not plan.maintained:
            return
        view = plan.view
        if view is None:
            entities = rows
            scales = None
            scale_old, scale_new = (0, 1) if sign > 0 else (1, 0)
        else:
            counts: Dict[Tuple, int] = {}
            for row in rows:
                group = view.group_of(row)
                counts[group] = counts.get(group, 0) + sign
            entities = scales = {}
            for group, change in counts.items():
                feq = view.feq(group)
                scale = next_pow2(feq - change), next_pow2(feq)
                if scale[0] != scale[1]:
                    scales[group] = scale
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
        propagations = 0
        while before:
            parent = plan.parent
            if parent is None and sign > 0:
                break  # nothing above to update, and inserts empty no family
            families = plan.families
            parent_before: Dict[Tuple, int] = {}
            for key, old_approx in before.items():
                new_approx = families[key].approx
                if not new_approx:
                    del families[key]
                if new_approx == old_approx or parent is None:
                    continue
                siblings = plan.siblings
                feq_approx = plan.feq_approx
                parent_key = parent.family_key
                parent_families = parent.families
                for entity in plan.parent_lookup(key):
                    propagations += 1
                    others = _product(siblings, entity)
                    if feq_approx is not None:
                        others *= feq_approx(entity)
                    if others:
                        entity_key = parent_key(entity)
                        family = parent_families.get(entity_key)
                        if family is None:
                            family = parent_families[entity_key] = BucketFamily()
                        parent_before.setdefault(entity_key, family.approx)
                        family.reweight(entity, old_approx * others, new_approx * others)
            plan, before = parent, parent_before
        if propagations:
            self.propagations += propagations

    # ------------------------------------------------------------------ #
    # BatchGenerate (Algorithm 8)
    # ------------------------------------------------------------------ #
    def delta_batch_size(self, row: Tuple) -> int:
        """``|ΔJ|`` for a row just inserted into the root relation."""
        return _product(self._plan[self.root].children, tuple(row))

    def delta_batch_sizes(self, rows: Sequence[Tuple]) -> List[int]:
        """``|ΔJ|`` for several rows just inserted into the root relation.

        The bulk companion of :meth:`delta_batch_size`; used by the batched
        ingestion path to decide which delta batches can be skipped without
        ever being constructed.
        """
        children = self._plan[self.root].children
        return [_product(children, row) for row in rows]

    def delta_batch(self, row: Tuple, size: Optional[int] = None) -> FunctionBatch:
        """The (lazy) batch ``ΔJ ⊇ ΔQ(R, t)`` for a newly inserted root row.

        Items are join results as ``{attribute: value}`` dicts; dummy
        positions yield ``None``.  ``size``, when the caller already holds
        :meth:`delta_batch_size` of the row, is not recomputed.
        """
        row = tuple(row)
        plan = self._plan[self.root]
        if size is None:
            size = _product(plan.children, row)
        return FunctionBatch(size, partial(self._retrieve, plan, None, row))

    # ------------------------------------------------------------------ #
    # Retrieve (Algorithms 9 / 11)
    # ------------------------------------------------------------------ #
    def _retrieve(
        self,
        plan: _NodePlan,
        family: Optional[BucketFamily],
        row: Optional[Tuple],
        position: int,
    ) -> Optional[dict]:
        """Retrieve: the join result at ``position`` of a node's batch.

        The batch is that of a full tuple ``row`` of the node when
        ``family`` is ``None``, else that of the key tuple whose family is
        ``family`` (``row`` is then unused).  One loop walks the subtree in
        pre-order with an explicit stack of ``(child plan, family,
        position)`` frames and fills one result dict, so a key keeps the
        place of its first appearance.  A key frame locates its entity in
        the family (for a group, then the member row its offset falls on);
        a full tuple splits its position over its children's ``c̃nt`` in
        mixed radix, the last child varying fastest.  The first dummy
        position on the way returns ``None``.
        """
        result: dict = {}
        stack: list = []
        while True:
            if family is not None:
                located = family.locate(position)
                if located is None:
                    return None
                row, position = located
                view = plan.view
                if view is not None:
                    span = _product(plan.children, row)
                    if span <= 0:
                        return None
                    member_index, position = divmod(position, span)
                    if member_index >= view.feq(row):
                        return None
                    row = plan.members(row)[member_index]
            result.update(zip(plan.attrs, row))
            children = plan.row_children
            if children:
                # Pushed last child first, so the first one is walked next.
                for get_family, key_of, child in reversed(children):
                    family = get_family(key_of(row))
                    if family is None or not family.approx:
                        return None
                    position, coordinate = divmod(position, family.approx)
                    stack.append((child, family, coordinate))
            elif position:
                return None
            if not stack:
                return result
            plan, family, position = stack.pop()

    # ------------------------------------------------------------------ #
    # Full-query sampling (operation (2) of Theorem 4.2)
    # ------------------------------------------------------------------ #
    def total_weight(self) -> int:
        """``|J|``: the padded size of the full join under this rooting."""
        if not self.maintain_root:
            raise RuntimeError("the root family is not maintained (maintain_root=False)")
        family = self._families[self.root].get(())
        return family.cnt if family is not None else 0

    def retrieve_global(self, position: int) -> Optional[dict]:
        """``J[position]`` for the full query (``None`` for dummy positions)."""
        if not self.maintain_root:
            raise RuntimeError("the root family is not maintained (maintain_root=False)")
        family = self._families[self.root].get(())
        if family is None:
            return None
        return self._retrieve(self._plan[self.root], family, None, position)

    def sample(self, rng: random.Random, max_attempts: int = 100_000) -> Optional[dict]:
        """Draw one uniform sample from the current full join result.

        Returns ``None`` when the join is currently empty.  Expected O(1)
        rejection rounds thanks to the Ω(1) density of ``J``.
        """
        total = self.total_weight()
        if total == 0:
            return None
        for _ in range(max_attempts):
            result = self.retrieve_global(rng.randrange(total))
            if result is not None:
                return result
        raise RuntimeError("rejection sampling failed; the index density is broken")

    # ------------------------------------------------------------------ #
    # Introspection and validation (used by the test suite)
    # ------------------------------------------------------------------ #
    def true_degree(self, node: str, key: Tuple) -> int:
        """Ground-truth degree of ``key`` in the subtree of ``node`` (recomputed).

        This is the exact number of join results of the sub-join below
        ``node`` whose projection onto ``key(node)`` equals ``key``; used by
        tests to verify ``cnt`` is an upper bound within the Lemma 4.4 factor.
        """
        relation = self.database[node]
        key_attrs = self.tree.key_of(node)
        rows = relation.semijoin(key_attrs, key) if key_attrs else relation.rows
        total = 0
        for row in rows:
            product = 1
            for child in self.tree.children_of(node):
                child_key = self.query.relation(node).project(row, self.tree.key_of(child))
                product *= self.true_degree(child, child_key)
                if product == 0:
                    break
            total += product
        return total

    def validate(self) -> None:
        """Check the structural invariants of every bucket family.

        * ``cnt`` equals the sum of bucket weights;
        * ``approx`` is the power-of-two rounding of ``cnt``;
        * ``cnt`` is at least the true degree and ``approx`` is at most
          ``2^{|T_e|}`` times it (Lemma 4.4).

        Raises ``AssertionError`` on any violation.  Intended for tests and
        debugging only (it recomputes ground truth and is therefore slow).
        """
        for node, families in self._families.items():
            subtree = self.tree.subtree_size(node)
            for key, family in families.items():
                assert family.cnt == family.weight_sum(), (
                    f"cnt mismatch at {node}/{key}: {family.cnt} != {family.weight_sum()}"
                )
                assert family.approx == next_pow2(family.cnt)
                truth = self.true_degree(node, key)
                assert family.cnt >= truth, (
                    f"cnt at {node}/{key} underestimates the true degree: "
                    f"{family.cnt} < {truth}"
                )
                # Lemma 4.4 gives c̃nt <= 2^{|T_e|} * truth; the grouping
                # optimisation adds one more factor of two through f̃eq.
                assert truth == 0 or family.approx <= (2 ** (subtree + 1)) * truth, (
                    f"c̃nt at {node}/{key} exceeds the Lemma 4.4 bound"
                )
