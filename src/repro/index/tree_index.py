"""The dynamic index of one rooted join tree (Section 4.3).

This module implements, for a single rooted join tree ``T``:

* ``IndexUpdate``            (Algorithm 7, with the grouping variant of
  Algorithm 10 folded in) — :meth:`TreeIndex.insert_row`;
* ``BatchGenerate``          (Algorithm 8) — :meth:`TreeIndex.delta_batch`,
  returned as a lazy, positionally addressable batch that is never
  materialised;
* ``Retrieve``               (Algorithm 9 / 11) — the ``retrieve`` callbacks
  behind the batch and behind full-query sampling.

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
    the plan that :meth:`TreeIndex._propagate` pushes ``c̃nt`` changes into,
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
        state = self.__dict__.copy()
        del state["_plan"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._prepare(build=False)

    # ------------------------------------------------------------------ #
    # IndexUpdate (Algorithms 7 / 10)
    # ------------------------------------------------------------------ #
    def insert_row(self, relation: str, row: Tuple) -> None:
        """Register a row that has just been inserted into ``relation``.

        The shared database (and therefore every maintained relation index
        and group view) must already contain the row.
        """
        self._update_row(self._plan[relation], tuple(row), 1)

    def delete_row(self, relation: str, row: Tuple) -> None:
        """Register a row that has just been deleted from ``relation``.

        The shared database (and therefore every maintained relation index
        and group view) must already have had the row removed.  This is the
        exact mirror of :meth:`insert_row`: the entity's weight drops to the
        value implied by the post-delete state, and the resulting ``c̃nt``
        decrease propagates up the tree through the same machinery as an
        increase (``BucketFamily.move`` and :meth:`_propagate` are both
        direction-agnostic).

        Note on amortisation: with deletions the approximate counters can
        now *decrease*, so the insert-only ``O(log N)`` amortised update
        bound (each counter doubles O(log N) times) no longer holds against
        an adversary that oscillates a counter across a power-of-two
        boundary.  Correctness — ``cnt`` exact, ``c̃nt = next_pow2(cnt)``,
        uniformity of retrieval — is unaffected; see
        ``docs/ARCHITECTURE.md``, "Turnstile & Windowed Sampling".
        """
        self._update_row(self._plan[relation], tuple(row), -1)

    def _update_row(self, plan: _NodePlan, row: Tuple, delta: int) -> None:
        """One row entered (``delta = 1``) or left (``-1``) the node's relation."""
        if not plan.maintained:
            return
        view = plan.view
        if view is None:
            weight = _product(plan.children, row)
            if weight == 0:
                # Zero-weight entities are never stored in a family (an
                # insert at weight 0 is skipped, and a child collapse to 0
                # evicts through propagation), so there is nothing to do.
                return
            old_weight, new_weight = (0, weight) if delta > 0 else (weight, 0)
            self._reweight(plan, plan.family_key(row), row, old_weight, new_weight)
            return
        group = view.group_of(row)
        feq_new = view.feq(group)  # the view was updated by the relation change
        approx_old = next_pow2(feq_new - delta)
        approx_new = next_pow2(feq_new)
        if approx_old == approx_new:
            return
        children = _product(plan.children, group)
        self._reweight(
            plan, plan.family_key(group), group, approx_old * children, approx_new * children
        )

    def insert_rows(self, relation: str, rows: Sequence[Tuple]) -> None:
        """Bulk version of :meth:`insert_row` for several rows of one relation.

        The shared database must already contain every row (and the rows must
        be deduplicated).  The final index state — every family's ``cnt``,
        ``approx`` and bucket contents — is identical to calling
        :meth:`insert_row` once per row; the saving is structural: rows are
        grouped by their bucket-family key, so a family whose exact count
        crosses several power-of-two boundaries within the batch propagates
        its ``c̃nt`` change *once* (per-tuple processing propagates once per
        doubling).

        This is valid because, within a single-relation batch, the child
        families this node's weights depend on belong to *other* relations
        and therefore do not change.
        """
        if len(rows) == 1:
            self.insert_row(relation, rows[0])
            return
        plan = self._plan[relation]
        if not plan.maintained:
            return
        if plan.view is not None:
            self._insert_rows_grouped(plan, rows)
            return
        children = plan.children
        family_key = plan.family_key
        families = plan.families
        before: Dict[Tuple, int] = {}
        for row in rows:
            weight = _product(children, row)
            if weight == 0:
                continue
            key = family_key(row)
            family = families.get(key)
            if family is None:
                family = BucketFamily()
                families[key] = family
            if key not in before:
                before[key] = family.approx
            # The row is new (database dedup) and the weight is a product of
            # approximate counters, hence a positive power of two — the
            # flattened fast path applies.
            family.reweight_one(row, 0, weight)
        self._bulk_propagate(plan, before)

    def _insert_rows_grouped(self, plan: _NodePlan, rows: Sequence[Tuple]) -> None:
        """Bulk insert under the grouping optimisation.

        ``feq`` already reflects the whole batch (the group view is updated
        by the database inserts), so each touched group is re-weighted once
        from ``f̃eq(feq - added)`` to ``f̃eq(feq)`` — the telescoped
        composition of the per-row updates of Algorithm 10.
        """
        view = plan.view
        added: Dict[Tuple, int] = {}
        for row in rows:
            group = view.group_of(row)
            added[group] = added.get(group, 0) + 1
        families = plan.families
        before: Dict[Tuple, int] = {}
        for group, count in added.items():
            feq_new = view.feq(group)
            approx_old = next_pow2(feq_new - count)
            approx_new = next_pow2(feq_new)
            if approx_old == approx_new:
                continue
            children = _product(plan.children, group)
            if children == 0:
                continue
            key = plan.family_key(group)
            family = families.get(key)
            if family is None:
                family = BucketFamily()
                families[key] = family
            before.setdefault(key, family.approx)
            family.move(group, approx_old * children, approx_new * children)
        self._bulk_propagate(plan, before)

    def _reweight(
        self, plan: _NodePlan, key: Tuple, entity: Tuple, old_weight: int, new_weight: int
    ) -> None:
        if old_weight == new_weight:
            return
        families = plan.families
        family = families.get(key)
        if family is None:
            family = BucketFamily()
            families[key] = family
        old_approx, new_approx = family.move(entity, old_weight, new_weight)
        if new_approx != old_approx:
            self._propagate(plan, key, old_approx, new_approx)
        if family.cnt == 0:
            # Deletions can empty a family; prune it so windowed workloads
            # (which eventually delete everything) do not leak dict entries.
            # Lookups treat a missing family as cnt = approx = 0.
            families.pop(key, None)

    def _bulk_propagate(self, plan: _NodePlan, before: Dict[Tuple, int]) -> None:
        """Bulk version of :meth:`_propagate`: push many ``c̃nt`` changes at once.

        ``before`` maps each family key of the node touched during a batch to
        its ``c̃nt`` before the batch; the families whose approximation
        changed are pushed up.  All parent entity re-weightings are applied
        first and the resulting parent-level approximation changes are
        pushed up in a single recursive call — each touched counter path is
        walked once per batch.  The per-entity arithmetic is identical to
        :meth:`_propagate` (lines 8-11 of Algorithm 7).
        """
        parent = plan.parent
        if parent is None:
            return
        families = plan.families
        lookup = plan.parent_lookup
        siblings = plan.siblings
        feq_approx = plan.feq_approx
        parent_key = parent.family_key
        parent_families = parent.families
        parent_before: Dict[Tuple, int] = {}
        for key, old_approx in before.items():
            new_approx = families[key].approx
            if new_approx == old_approx:
                continue
            for entity in lookup(key):
                self.propagations += 1
                others = _product(siblings, entity)
                factor = feq_approx(entity) if feq_approx is not None else 1
                old_weight = factor * old_approx * others
                new_weight = factor * new_approx * others
                if old_weight == new_weight:
                    continue
                entity_key = parent_key(entity)
                family = parent_families.get(entity_key)
                if family is None:
                    family = BucketFamily()
                    parent_families[entity_key] = family
                parent_before.setdefault(entity_key, family.approx)
                family.reweight_one(entity, old_weight, new_weight)
        if parent_before:
            self._bulk_propagate(parent, parent_before)

    def _propagate(self, plan: _NodePlan, key: Tuple, old_approx: int, new_approx: int) -> None:
        """Lines 8-11 of Algorithm 7: push a ``c̃nt`` change up to the parent."""
        parent = plan.parent
        if parent is None:
            return
        siblings = plan.siblings
        feq_approx = plan.feq_approx
        for entity in plan.parent_lookup(key):
            self.propagations += 1
            others = _product(siblings, entity)
            factor = feq_approx(entity) if feq_approx is not None else 1
            old_weight = factor * old_approx * others
            new_weight = factor * new_approx * others
            if old_weight != new_weight:
                self._reweight(parent, parent.family_key(entity), entity, old_weight, new_weight)

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
        return FunctionBatch(size, lambda position: self._retrieve_full(plan, row, position))

    # ------------------------------------------------------------------ #
    # Retrieve (Algorithms 9 / 11)
    # ------------------------------------------------------------------ #
    def _retrieve_full(self, plan: _NodePlan, row: Tuple, position: int) -> Optional[dict]:
        """Retrieve within the batch generated for a full tuple of a node."""
        result = dict(zip(plan.attrs, row))
        children = plan.row_children
        if not children:
            return result if position == 0 else None
        found = []
        for get_family, key_of, child in children:
            family = get_family(key_of(row))
            if family is None or not family.approx:
                return None
            found.append((child, family))
        # Mixed radix, the last child varying fastest.
        coordinates = []
        remaining = position
        for _, family in reversed(found):
            remaining, coordinate = divmod(remaining, family.approx)
            coordinates.append(coordinate)
        for (child, family), coordinate in zip(found, reversed(coordinates)):
            piece = self._retrieve_key(child, family, coordinate)
            if piece is None:
                return None
            result.update(piece)
        return result

    def _retrieve_key(
        self, plan: _NodePlan, family: BucketFamily, position: int
    ) -> Optional[dict]:
        """Retrieve within the batch generated for a key tuple of a node."""
        located = family.locate(position)
        if located is None:
            return None
        entity, offset = located
        view = plan.view
        if view is None:
            return self._retrieve_full(plan, entity, offset)
        span = _product(plan.children, entity)
        if span <= 0:
            return None
        member_index, member_offset = divmod(offset, span)
        if member_index >= view.feq(entity):
            return None
        return self._retrieve_full(plan, plan.members(entity)[member_index], member_offset)

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
        return self._retrieve_key(self._plan[self.root], family, position)

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
    def family(self, node: str, key: Tuple) -> Optional[BucketFamily]:
        """The bucket family of ``(node, key)`` if it exists."""
        return self._families[node].get(key)

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
