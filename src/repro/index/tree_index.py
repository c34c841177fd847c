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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.skippable import FunctionBatch
from ..relational.database import Database
from ..relational.jointree import RootedJoinTree
from ..relational.query import JoinQuery
from ..relational.schema import tuple_getter
from .buckets import BucketFamily
from .counters import next_pow2
from .grouping import GroupView, grouping_attrs


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
        self._prepare()

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #
    def _prepare(self) -> None:
        for name in self.tree.topological_order():
            node = self.tree.node(name)
            relation = self.database[name]
            if relation.rows:
                raise ValueError(
                    "TreeIndex must be built over an empty database; "
                    "replay pre-loaded tuples through insert_row instead"
                )
            attrs = grouping_attrs(self.tree, name) if self.grouping_enabled else None
            view = GroupView(relation, attrs) if attrs else None
            self._group_views[name] = view
            entity_relation = view.relation if view else relation
            for child in node.children:
                entity_relation.index_on(self.tree.key_of(child))
            if view is not None:
                relation.index_on(view.attrs)

    # ------------------------------------------------------------------ #
    # Small helpers
    # ------------------------------------------------------------------ #
    def _approx(self, node: str, key: Tuple) -> int:
        family = self._families[node].get(key)
        return family.approx if family is not None else 0

    def _count(self, node: str, key: Tuple) -> int:
        family = self._families[node].get(key)
        return family.cnt if family is not None else 0

    def _project_entity(
        self, node: str, entity: Tuple, view: Optional[GroupView], attrs: Iterable[str]
    ) -> Tuple:
        if view is not None:
            return view.project(entity, attrs)
        return self.query.relation(node).project(entity, attrs)

    def _children_product(
        self,
        node: str,
        entity: Tuple,
        view: Optional[GroupView],
        exclude: Optional[str] = None,
    ) -> int:
        """Π over children of the entity's child-key approximate counts."""
        product = 1
        for child in self.tree.children_of(node):
            if child == exclude:
                continue
            key = self._project_entity(node, entity, view, self.tree.key_of(child))
            product *= self._approx(child, key)
            if product == 0:
                return 0
        return product

    def _entity_key(self, node: str, entity: Tuple, view: Optional[GroupView]) -> Tuple:
        key_attrs = self.tree.key_of(node)
        if not key_attrs:
            return ()
        return self._project_entity(node, entity, view, key_attrs)

    # ------------------------------------------------------------------ #
    # IndexUpdate (Algorithms 7 / 10)
    # ------------------------------------------------------------------ #
    def insert_row(self, relation: str, row: Tuple) -> None:
        """Register a row that has just been inserted into ``relation``.

        The shared database (and therefore every maintained relation index
        and group view) must already contain the row.
        """
        row = tuple(row)
        node = self.tree.node(relation)
        if node.is_root and not self.maintain_root:
            return
        view = self._group_views[relation]
        if view is None:
            weight = self._children_product(relation, row, None)
            key = self._entity_key(relation, row, None)
            self._reweight(relation, key, row, 0, weight)
            return
        group = view.group_of(row)
        feq_new = view.feq(group)  # the view was updated by the relation insert
        feq_old = feq_new - 1
        approx_old = next_pow2(feq_old)
        approx_new = next_pow2(feq_new)
        if approx_old == approx_new:
            return
        children = self._children_product(relation, group, view)
        key = self._entity_key(relation, group, view)
        self._reweight(relation, key, group, approx_old * children, approx_new * children)

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
        row = tuple(row)
        node = self.tree.node(relation)
        if node.is_root and not self.maintain_root:
            return
        view = self._group_views[relation]
        if view is None:
            weight = self._children_product(relation, row, None)
            if weight == 0:
                # Zero-weight entities are never stored in a family (an
                # insert at weight 0 is skipped, and a child collapse to 0
                # evicts through propagation), so there is nothing to undo.
                return
            key = self._entity_key(relation, row, None)
            self._reweight(relation, key, row, weight, 0)
            return
        group = view.group_of(row)
        feq_new = view.feq(group)  # the view was updated by the relation delete
        feq_old = feq_new + 1
        approx_old = next_pow2(feq_old)
        approx_new = next_pow2(feq_new)
        if approx_old == approx_new:
            return
        children = self._children_product(relation, group, view)
        key = self._entity_key(relation, group, view)
        self._reweight(relation, key, group, approx_old * children, approx_new * children)

    def insert_rows(self, relation: str, rows: Sequence[Tuple]) -> None:
        """Bulk version of :meth:`insert_row` for several rows of one relation.

        The shared database must already contain every row (and the rows must
        be deduplicated).  The final index state — every family's ``cnt``,
        ``approx`` and bucket contents — is identical to calling
        :meth:`insert_row` once per row; the savings are structural:

        * rows are grouped by their bucket-family key, so a family whose
          exact count crosses several power-of-two boundaries within the
          batch propagates its ``c̃nt`` change *once* (per-tuple processing
          propagates once per doubling);
        * the projection machinery (attribute-position resolution) is hoisted
          out of the per-row loop.

        This is valid because, within a single-relation batch, the child
        families this node's weights depend on belong to *other* relations
        and therefore do not change.
        """
        if len(rows) == 1:
            self.insert_row(relation, rows[0])
            return
        node = self.tree.node(relation)
        if node.is_root and not self.maintain_root:
            return
        view = self._group_views[relation]
        if view is not None:
            self._insert_rows_grouped(relation, rows, view)
            return
        schema = self.query.relation(relation)
        key_attrs = self.tree.key_of(relation)
        project_key = tuple_getter(schema.positions_of(key_attrs)) if key_attrs else None
        child_info = [
            (self._families[child].get, tuple_getter(schema.positions_of(self.tree.key_of(child))))
            for child in self.tree.children_of(relation)
        ]
        families = self._families[relation]
        before: Dict[Tuple, int] = {}
        for row in rows:
            weight = 1
            for lookup_family, project_child in child_info:
                family = lookup_family(project_child(row))
                weight = weight * family.approx if family is not None else 0
                if weight == 0:
                    break
            if weight == 0:
                continue
            key = project_key(row) if project_key is not None else ()
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
        changes = [
            (key, old_approx, families[key].approx)
            for key, old_approx in before.items()
            if families[key].approx != old_approx
        ]
        if changes:
            self._bulk_propagate(relation, changes)

    def _insert_rows_grouped(self, relation: str, rows: Sequence[Tuple], view: GroupView) -> None:
        """Bulk insert under the grouping optimisation.

        ``feq`` already reflects the whole batch (the group view is updated
        by the database inserts), so each touched group is re-weighted once
        from ``f̃eq(feq - added)`` to ``f̃eq(feq)`` — the telescoped
        composition of the per-row updates of Algorithm 10.
        """
        added: Dict[Tuple, int] = {}
        order: List[Tuple] = []
        for row in rows:
            group = view.group_of(row)
            if group in added:
                added[group] += 1
            else:
                added[group] = 1
                order.append(group)
        families = self._families[relation]
        old_approxes: Dict[Tuple, int] = {}
        for group in order:
            feq_new = view.feq(group)
            feq_old = feq_new - added[group]
            approx_old = next_pow2(feq_old)
            approx_new = next_pow2(feq_new)
            if approx_old == approx_new:
                continue
            children = self._children_product(relation, group, view)
            old_weight = approx_old * children
            new_weight = approx_new * children
            if old_weight == new_weight:
                continue
            key = self._entity_key(relation, group, view)
            family = families.get(key)
            if family is None:
                family = BucketFamily()
                families[key] = family
            old_approxes.setdefault(key, family.approx)
            family.move(group, old_weight, new_weight)
        changes = [
            (key, old_approx, families[key].approx)
            for key, old_approx in old_approxes.items()
            if families[key].approx != old_approx
        ]
        if changes:
            self._bulk_propagate(relation, changes)

    def _reweight(
        self, node: str, key: Tuple, entity: Tuple, old_weight: int, new_weight: int
    ) -> None:
        if old_weight == new_weight:
            return
        family = self._families[node].get(key)
        if family is None:
            family = BucketFamily()
            self._families[node][key] = family
        old_approx, new_approx = family.move(entity, old_weight, new_weight)
        if new_approx != old_approx:
            self._propagate(node, key, old_approx, new_approx)
        if family.cnt == 0:
            # Deletions can empty a family; prune it so windowed workloads
            # (which eventually delete everything) do not leak dict entries.
            # Lookups treat a missing family as cnt = approx = 0.
            self._families[node].pop(key, None)

    def _bulk_propagate(self, node: str, changes: List[Tuple[Tuple, int, int]]) -> None:
        """Bulk version of :meth:`_propagate`: push many ``c̃nt`` changes at once.

        ``changes`` holds ``(key, old_approx, new_approx)`` for the families
        of ``node`` whose approximation changed during a batch.  All parent
        entity re-weightings are applied first and the resulting parent-level
        approximation changes are pushed up in a single recursive call — each
        touched counter path is walked once per batch.  The per-entity
        arithmetic is identical to :meth:`_propagate` (lines 8-11 of
        Algorithm 7), with the key-projection machinery hoisted out of the
        loops.
        """
        parent = self.tree.parent_of(node)
        if parent is None:
            return
        if parent == self.root and not self.maintain_root:
            return
        parent_view = self._group_views[parent]
        entity_relation = (
            parent_view.relation if parent_view is not None else self.database[parent]
        )
        lookup = entity_relation.index_on(self.tree.key_of(node)).lookup
        schema = entity_relation.schema
        sibling_info = [
            (self._families[child].get, tuple_getter(schema.positions_of(self.tree.key_of(child))))
            for child in self.tree.children_of(parent)
            if child != node
        ]
        feq_approx = parent_view.feq_approx if parent_view is not None else None
        parent_key_attrs = self.tree.key_of(parent)
        project_parent_key = (
            tuple_getter(schema.positions_of(parent_key_attrs)) if parent_key_attrs else None
        )
        parent_families = self._families[parent]
        old_approxes: Dict[Tuple, int] = {}
        for key, old_approx, new_approx in changes:
            for entity in lookup(key):
                self.propagations += 1
                others = 1
                for lookup_family, project_sibling in sibling_info:
                    family = lookup_family(project_sibling(entity))
                    others = others * family.approx if family is not None else 0
                    if others == 0:
                        break
                factor = feq_approx(entity) if feq_approx is not None else 1
                old_weight = factor * old_approx * others
                new_weight = factor * new_approx * others
                if old_weight == new_weight:
                    continue
                parent_key = (
                    project_parent_key(entity) if project_parent_key is not None else ()
                )
                family = parent_families.get(parent_key)
                if family is None:
                    family = BucketFamily()
                    parent_families[parent_key] = family
                old_approxes.setdefault(parent_key, family.approx)
                family.reweight_one(entity, old_weight, new_weight)
        parent_changes = [
            (parent_key, old_approx, parent_families[parent_key].approx)
            for parent_key, old_approx in old_approxes.items()
            if parent_families[parent_key].approx != old_approx
        ]
        if parent_changes:
            self._bulk_propagate(parent, parent_changes)

    def _propagate(self, child: str, key: Tuple, old_approx: int, new_approx: int) -> None:
        """Lines 8-11 of Algorithm 7: push a ``c̃nt`` change up to the parent."""
        parent = self.tree.parent_of(child)
        if parent is None:
            return
        if parent == self.root and not self.maintain_root:
            return
        parent_view = self._group_views[parent]
        entity_relation = (
            parent_view.relation if parent_view is not None else self.database[parent]
        )
        child_key_attrs = self.tree.key_of(child)
        for entity in entity_relation.semijoin(child_key_attrs, key):
            self.propagations += 1
            others = self._children_product(parent, entity, parent_view, exclude=child)
            factor = parent_view.feq_approx(entity) if parent_view is not None else 1
            old_weight = factor * old_approx * others
            new_weight = factor * new_approx * others
            if old_weight != new_weight:
                parent_key = self._entity_key(parent, entity, parent_view)
                self._reweight(parent, parent_key, entity, old_weight, new_weight)

    # ------------------------------------------------------------------ #
    # BatchGenerate (Algorithm 8)
    # ------------------------------------------------------------------ #
    def delta_batch_size(self, row: Tuple) -> int:
        """``|ΔJ|`` for a row just inserted into the root relation."""
        schema = self.query.relation(self.root)
        size = 1
        for child in self.tree.children_of(self.root):
            key = schema.project(row, self.tree.key_of(child))
            size *= self._approx(child, key)
            if size == 0:
                return 0
        return size

    def delta_batch_sizes(self, rows: Sequence[Tuple]) -> List[int]:
        """``|ΔJ|`` for several rows just inserted into the root relation.

        The bulk companion of :meth:`delta_batch_size` with the child-key
        projection positions resolved once for the whole batch; used by the
        batched ingestion path to decide which delta batches can be skipped
        without ever being constructed.
        """
        schema = self.query.relation(self.root)
        child_info = [
            (self._families[child].get, tuple_getter(schema.positions_of(self.tree.key_of(child))))
            for child in self.tree.children_of(self.root)
        ]
        sizes: List[int] = []
        for row in rows:
            size = 1
            for lookup_family, project_child in child_info:
                family = lookup_family(project_child(row))
                size = size * family.approx if family is not None else 0
                if size == 0:
                    break
            sizes.append(size)
        return sizes

    def delta_batch(self, row: Tuple) -> FunctionBatch:
        """The (lazy) batch ``ΔJ ⊇ ΔQ(R, t)`` for a newly inserted root row.

        Items are join results as ``{attribute: value}`` dicts; dummy
        positions yield ``None``.
        """
        row = tuple(row)
        size = self.delta_batch_size(row)
        return FunctionBatch(size, lambda position: self._retrieve_full(self.root, row, position))

    # ------------------------------------------------------------------ #
    # Retrieve (Algorithms 9 / 11)
    # ------------------------------------------------------------------ #
    def _retrieve_full(self, node: str, row: Tuple, position: int) -> Optional[dict]:
        """Retrieve within the batch generated for a full tuple of ``node``."""
        schema = self.query.relation(node)
        children = self.tree.children_of(node)
        result = schema.row_to_mapping(row)
        if not children:
            return result if position == 0 else None
        radices: List[int] = []
        keys: List[Tuple] = []
        for child in children:
            key = schema.project(row, self.tree.key_of(child))
            keys.append(key)
            radices.append(self._approx(child, key))
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
        """Retrieve within the batch generated for a key tuple of ``node``."""
        family = self._families[node].get(key)
        if family is None:
            return None
        located = family.locate(position)
        if located is None:
            return None
        entity, offset = located
        view = self._group_views[node]
        if view is None:
            return self._retrieve_full(node, entity, offset)
        span = self._children_product(node, entity, view)
        if span <= 0:
            return None
        member_index, member_offset = divmod(offset, span)
        if member_index >= view.feq(entity):
            return None
        member = view.members(entity)[member_index]
        return self._retrieve_full(node, member, member_offset)

    # ------------------------------------------------------------------ #
    # Full-query sampling (operation (2) of Theorem 4.2)
    # ------------------------------------------------------------------ #
    def total_weight(self) -> int:
        """``|J|``: the padded size of the full join under this rooting."""
        if not self.maintain_root:
            raise RuntimeError("the root family is not maintained (maintain_root=False)")
        return self._count(self.root, ())

    def retrieve_global(self, position: int) -> Optional[dict]:
        """``J[position]`` for the full query (``None`` for dummy positions)."""
        if not self.maintain_root:
            raise RuntimeError("the root family is not maintained (maintain_root=False)")
        return self._retrieve_key(self.root, (), position)

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

    def family_count(self) -> int:
        """Total number of bucket families across all nodes."""
        return sum(len(families) for families in self._families.values())

    def group_view(self, node: str) -> Optional[GroupView]:
        """The grouping view of ``node`` (``None`` when the node is not grouped)."""
        return self._group_views[node]

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
