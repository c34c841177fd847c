"""Join queries as hypergraphs (Section 2.1 of the paper).

A multi-way natural join query is a hypergraph ``Q = (V, E)``: ``V`` is the
set of attributes and every relation schema in ``E`` is a hyperedge over a
subset of ``V``.  Two relations join on every attribute name they share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .schema import KeyConstraint, RelationSchema, canonical_attrs


@dataclass
class JoinQuery:
    """A natural-join query over a set of relation schemas.

    Parameters
    ----------
    name:
        A human-readable query name (e.g. ``"line-3"`` or ``"QZ"``).
    relations:
        The relation schemas participating in the join.  Names must be unique.
    keys:
        Optional primary-key constraints used by the foreign-key optimisation
        of Section 4.4.
    """

    name: str
    relations: List[RelationSchema]
    keys: List[KeyConstraint] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate relation names in query {self.name!r}: {names}")
        if not self.relations:
            raise ValueError("a join query needs at least one relation")
        self._by_name: Dict[str, RelationSchema] = {r.name: r for r in self.relations}

    # ------------------------------------------------------------------ #
    # Hypergraph structure
    # ------------------------------------------------------------------ #
    @property
    def attributes(self) -> FrozenSet[str]:
        """The attribute set ``V`` of the hypergraph."""
        attrs: set = set()
        for rel in self.relations:
            attrs.update(rel.attrs)
        return frozenset(attrs)

    @property
    def relation_names(self) -> Tuple[str, ...]:
        """Names of the participating relations, in declaration order."""
        return tuple(r.name for r in self.relations)

    def relation(self, name: str) -> RelationSchema:
        """Schema of the relation called ``name``."""
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def relations_with_attr(self, attr: str) -> List[RelationSchema]:
        """All relations whose schema contains ``attr``."""
        return [r for r in self.relations if attr in r.attr_set]

    def output_attrs(self) -> Tuple[str, ...]:
        """All output attributes of the join, in canonical order."""
        return canonical_attrs(self.attributes)

    # ------------------------------------------------------------------ #
    # Structural properties
    # ------------------------------------------------------------------ #
    def is_acyclic(self) -> bool:
        """Whether the query is alpha-acyclic (Definition 4.1)."""
        from .acyclicity import is_acyclic

        return is_acyclic(self)

    def primary_key(self, relation: str) -> Optional[Tuple[str, ...]]:
        """The declared primary key of ``relation``, or ``None``."""
        for constraint in self.keys:
            if constraint.relation == relation:
                return constraint.attrs
        return None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(
        cls,
        name: str,
        spec: Mapping[str, Sequence[str]],
        keys: Optional[Mapping[str, Sequence[str]]] = None,
    ) -> "JoinQuery":
        """Build a query from ``{relation_name: [attr, ...]}`` mappings.

        ``keys`` optionally maps relation names to their primary-key
        attribute list.
        """
        relations = [RelationSchema(rel, tuple(attrs)) for rel, attrs in spec.items()]
        constraints = []
        if keys:
            constraints = [KeyConstraint(rel, tuple(attrs)) for rel, attrs in keys.items()]
        return cls(name, relations, constraints)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rels = ", ".join(str(r) for r in self.relations)
        return f"JoinQuery({self.name!r}: {rels})"
