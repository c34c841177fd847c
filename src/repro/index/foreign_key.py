"""Foreign-key combination (Section 4.4).

When the join between two relations is on the primary key of one of them
(a *foreign-key join*), the pair can be collapsed into a single logical
relation: ``R_i ⋈_X R_j`` with ``X`` the primary key of ``R_j`` becomes
``R_ij = R_i ⋈ R_j``.  The paper applies this rewriting recursively until no
foreign-key join remains, shrinking the join tree and — more importantly —
removing the many-to-one hops along which count changes would otherwise be
propagated.

:class:`ForeignKeyCombiner` performs the rewriting at two levels:

* it produces the *rewritten query* (one relation per combined group), and
* it rewrites the *stream*: each arriving base tuple is translated into the
  combined-relation tuples it completes.  A fact tuple whose dimension rows
  have all arrived produces its combined tuples immediately; otherwise the
  combined tuples appear later, when the last missing dimension tuple
  arrives (exactly the behaviour described in Section 4.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..relational.database import Database
from ..relational.join import delta_results
from ..relational.query import JoinQuery
from ..relational.schema import KeyConstraint, RelationSchema, canonical_attrs
from ..relational.stream import StreamTuple


class _Group:
    """A set of original relations collapsed into one combined relation."""

    def __init__(self, base: RelationSchema, key: Optional[Tuple[str, ...]]) -> None:
        self.base = base
        self.members: List[RelationSchema] = [base]
        self.key = key

    @property
    def attrs(self) -> Set[str]:
        attrs: Set[str] = set()
        for member in self.members:
            attrs.update(member.attrs)
        return attrs

    @property
    def name(self) -> str:
        if len(self.members) == 1:
            return self.base.name
        return "+".join(member.name for member in self.members)

    def absorb(self, other: "_Group") -> None:
        self.members.extend(other.members)


def _find_foreign_key_merge(
    groups: List[_Group],
) -> Optional[Tuple[int, int]]:
    """Find ``(absorber, absorbed)`` indices for one foreign-key combination."""
    for absorbed_index, absorbed in enumerate(groups):
        if absorbed.key is None:
            continue
        key = set(absorbed.key)
        for absorber_index, absorber in enumerate(groups):
            if absorber_index == absorbed_index:
                continue
            shared = absorber.attrs & absorbed.attrs
            if shared and key <= shared:
                return absorber_index, absorbed_index
    return None


class ForeignKeyCombiner:
    """Rewrites a query and its stream by collapsing foreign-key joins."""

    def __init__(self, query: JoinQuery) -> None:
        self.original_query = query
        groups = [
            _Group(schema, query.primary_key(schema.name)) for schema in query.relations
        ]
        while True:
            merge = _find_foreign_key_merge(groups)
            if merge is None:
                break
            absorber, absorbed = merge
            groups[absorber].absorb(groups[absorbed])
            del groups[absorbed]
        self.groups = groups
        self._group_of: Dict[str, _Group] = {}
        for group in groups:
            for member in group.members:
                self._group_of[member.name] = group
        self.rewritten_query = self._build_rewritten_query()
        # Per-group databases holding the member relations, used to compute
        # which combined tuples a newly arrived base tuple completes.
        self._group_queries: Dict[str, JoinQuery] = {}
        self._group_databases: Dict[str, Database] = {}
        for group in groups:
            subquery = JoinQuery(f"{query.name}:{group.name}", list(group.members))
            self._group_queries[group.name] = subquery
            self._group_databases[group.name] = Database(subquery)
        self.combined_emitted = 0

    # ------------------------------------------------------------------ #
    # Query rewriting
    # ------------------------------------------------------------------ #
    def _build_rewritten_query(self) -> JoinQuery:
        relations = []
        keys = []
        for group in self.groups:
            if len(group.members) == 1:
                # Singleton groups keep the original schema (and attribute
                # order), because their stream tuples pass through unchanged.
                relations.append(group.base)
            else:
                relations.append(RelationSchema(group.name, canonical_attrs(group.attrs)))
            if group.key is not None:
                keys.append(KeyConstraint(group.name, group.key))
        return JoinQuery(f"{self.original_query.name}(fk)", relations, keys)

    @property
    def is_effective(self) -> bool:
        """Whether any foreign-key combination actually happened."""
        return len(self.groups) < len(self.original_query.relations)

    # ------------------------------------------------------------------ #
    # Stream rewriting
    # ------------------------------------------------------------------ #
    def process(self, item: StreamTuple) -> List[StreamTuple]:
        """Translate one original stream tuple into combined-relation tuples."""
        group = self._group_of[item.relation]
        if len(group.members) == 1:
            return [StreamTuple(group.name, item.row, item.timestamp)]
        database = self._group_databases[group.name]
        subquery = self._group_queries[group.name]
        if not database.insert(item.relation, item.row):
            return []
        combined_schema = self.rewritten_query.relation(group.name)
        emitted = []
        for result in delta_results(subquery, database, item.relation, item.row):
            combined_row = combined_schema.row_from_mapping(result)
            emitted.append(StreamTuple(group.name, combined_row, item.timestamp))
        self.combined_emitted += len(emitted)
        return emitted

    def rewrite_stream(self, stream: Sequence[StreamTuple]) -> List[StreamTuple]:
        """Rewrite a whole stream (preserving arrival order of combined tuples)."""
        rewritten: List[StreamTuple] = []
        for item in stream:
            rewritten.extend(self.process(item))
        return rewritten

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(group.name for group in self.groups)
        return f"ForeignKeyCombiner({self.original_query.name!r} -> [{names}])"
