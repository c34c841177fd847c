"""The grouping optimisation of Section 4.4.

For a non-root internal node ``e`` with children ``e_1 … e_m``, let
``ē = key(e) ∪ key(e_1) ∪ … ∪ key(e_m)`` be the node's *join attributes*.
When ``e`` has attributes outside ``ē``, many tuples of ``R_e`` are
indistinguishable as far as the index is concerned: they only differ on
attributes that neither the parent nor any child joins on.  The grouping
optimisation therefore stores one bucket entity per distinct projection
``π_ē R_e`` (a *group*), together with its multiplicity
``feq[T, ē, t] = |R_e ⋉ t|`` and the power-of-two approximation ``f̃eq``.
Propagated updates then touch one entity per group instead of one per tuple,
which is where the practical speed-up comes from (Figure 9).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..relational.jointree import RootedJoinTree
from ..relational.relation import Relation
from ..relational.schema import RelationSchema, canonical_attrs, tuple_getter
from .counters import next_pow2


def grouping_attrs(tree: RootedJoinTree, node: str) -> Optional[Tuple[str, ...]]:
    """The group attribute set ``ē`` for ``node`` in ``tree``, if grouping applies.

    Returns ``None`` when grouping is not applicable: the node is the root, a
    leaf, or already has no attributes outside its join attributes.
    """
    info = tree.node(node)
    if info.is_root or info.is_leaf:
        return None
    join_attrs = set(info.key_attrs)
    for child in info.children:
        join_attrs.update(tree.node(child).key_attrs)
    if set(info.attrs) <= join_attrs:
        return None
    return canonical_attrs(join_attrs)


class GroupView:
    """A maintained view ``R_ē = π_ē R_e`` with ``feq`` multiplicities.

    The view registers itself as an insert callback on the base relation, so
    it stays current without any cooperation from the index code; the group
    relation behind it is a full :class:`Relation` and therefore supports the
    same maintained hash indexes the propagation loops need.
    """

    def __init__(self, base: Relation, attrs: Iterable[str], name: Optional[str] = None) -> None:
        self.base = base
        self.attrs = canonical_attrs(attrs)
        self._positions = base.schema.positions_of(self.attrs)
        self._group_of = tuple_getter(self._positions)
        group_name = name or f"{base.name}@{'_'.join(self.attrs)}"
        self.relation = Relation(RelationSchema(group_name, self.attrs))
        self._feq: Dict[Tuple, int] = {}
        for row in base.rows:
            self._absorb(row)
        base.add_insert_callback(self._absorb)
        base.add_delete_callback(self._release)

    def _absorb(self, row: Tuple) -> None:
        group = self._group_of(row)
        self._feq[group] = self._feq.get(group, 0) + 1
        self.relation.insert(group)

    def _release(self, row: Tuple) -> None:
        group = self._group_of(row)
        remaining = self._feq[group] - 1
        if remaining:
            self._feq[group] = remaining
        else:
            del self._feq[group]
            self.relation.delete(group)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def group_of(self, row: Tuple) -> Tuple:
        """The group tuple (projection onto ``ē``) of a base row."""
        return self._group_of(row)

    def feq(self, group: Tuple) -> int:
        """``feq[T, ē, t]``: number of base rows in the group."""
        return self._feq.get(group, 0)

    def feq_approx(self, group: Tuple) -> int:
        """``f̃eq``: the power-of-two upper approximation of ``feq``."""
        return next_pow2(self._feq.get(group, 0))

    def members(self, group: Tuple) -> list:
        """Base rows belonging to ``group`` in insertion order (positional)."""
        return self.base.semijoin(self.attrs, group)

    def project(self, group: Tuple, attrs: Iterable[str]) -> Tuple:
        """Project a group tuple onto a subset of the group attributes."""
        return self.relation.schema.project(group, attrs)

    def __len__(self) -> int:
        return len(self.relation)
