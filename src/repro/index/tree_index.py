"""The rooted views of the dynamic index (Section 4.3).

The families of the index are keyed by directed join-tree edge and owned by
:class:`~repro.index.dynamic_index.DynamicJoinIndex`, which also runs
IndexUpdate (Algorithm 7, with the grouping variant of Algorithm 10 folded
in) once per relation run.  This module holds what reads them along one
rooting ``T``:

* :class:`_NodePlan` — the compiled record of one directed edge ``p → c``
  (or ``None → r`` for a root), shared by every rooting in which ``c`` sits
  below ``p``;
* ``BatchGenerate``          (Algorithm 8) — :meth:`TreeIndex.delta_batch_sizes`
  and :meth:`TreeIndex.delta_retrieve`, the delta batch of a root row as a
  size and positional access, never materialised;
* ``Retrieve``               (Algorithm 9 / 11) — :meth:`TreeIndex._retrieve`,
  one iterative pre-order walk of the compiled plans behind the batch and
  behind full-query sampling.

For every directed edge ``p → c`` (and, optionally, a root) and every key
tuple ``t ∈ π_key R_c`` the index keeps a
:class:`~repro.index.buckets.BucketFamily` whose entities are either the
tuples of ``R_c ⋉ t`` or, when the grouping optimisation applies, the
distinct projections onto the node's join attributes.  Every entity's weight
is the product of the power-of-two approximate counts of the families below
it (times ``f̃eq`` for groups), so weights are powers of two and only change
when an approximate counter doubles — the source of the ``O(log N)``
amortised update bound.  Those families depend only on ``c``'s side of the
tree, which is why one copy serves every rooting.
"""

from __future__ import annotations

import random
from functools import partial
from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

from .buckets import BucketFamily


class _NodePlan:
    """Everything the hot paths need about one directed edge, resolved once.

    The plan of ``p → c`` describes node ``c`` with ``p`` as its parent.
    ``families`` is the edge's shared family dict (``None`` for a root
    whose family is not maintained), keyed through ``family_key`` on the
    node's *entities* (group tuples when ``view`` is set, else rows).
    ``children`` holds ``(family lookup, key getter, child plan)`` triples,
    one per neighbour of ``c`` other than ``p`` in adjacency order, whose
    getters project entities; ``row_children`` projects full rows and is
    ``children`` itself when the node is not grouped.  ``targets`` lists
    where a ``c̃nt`` change of this edge's families goes: one
    ``(entity lookup, sibling triples, f̃eq lookup, target plan)`` per
    maintained edge into ``p`` other than ``c → p``.
    """

    __slots__ = (
        "attrs", "families", "view", "members", "family_key", "children",
        "row_children", "targets",
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
    """The view of the dynamic index along one rooted join tree.

    A ``TreeIndex`` owns no families.  It holds the root record of the
    edge plans that :class:`~repro.index.dynamic_index.DynamicJoinIndex`
    compiles once and shares among its views, one view per relation.
    Tuples inserted into the *root* relation have their delta batches
    generated here.

    Parameters
    ----------
    root:
        The relation this view is rooted at.
    plan:
        The compiled plan of the edge ``None → root``.  When it has
        families the view can also draw uniform samples from the *full*
        current join (the dynamic sampling-over-joins problem, operation
        (2) of Theorem 4.2) in addition to delta batches.
    """

    def __init__(self, root: str, plan: _NodePlan) -> None:
        self.root = root
        self._root_plan = plan
        self.maintain_root = plan.families is not None

    # ------------------------------------------------------------------ #
    # BatchGenerate (Algorithm 8)
    # ------------------------------------------------------------------ #
    def delta_batch_size(self, row: Tuple) -> int:
        """``|ΔJ|`` for a row just inserted into the root relation."""
        return _product(self._root_plan.children, tuple(row))

    def delta_batch_sizes(self, rows: Sequence[Tuple]) -> List[int]:
        """``|ΔJ|`` for several rows just inserted into the root relation.

        The bulk companion of :meth:`delta_batch_size`; used by the batched
        ingestion path to decide which delta batches can be skipped without
        ever being constructed.
        """
        children = self._root_plan.children
        return [_product(children, row) for row in rows]

    def delta_retrieve(self) -> Callable[[Tuple, int], Optional[dict]]:
        """Retrieve into the delta batch of a root row: ``(row, position) -> result``."""
        return partial(self._retrieve, self._root_plan, None)

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
        family = self._root_plan.families.get(())
        return family.cnt if family is not None else 0

    def retrieve_global(self, position: int) -> Optional[dict]:
        """``J[position]`` for the full query (``None`` for dummy positions)."""
        if not self.maintain_root:
            raise RuntimeError("the root family is not maintained (maintain_root=False)")
        family = self._root_plan.families.get(())
        if family is None:
            return None
        return self._retrieve(self._root_plan, family, None, position)

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
