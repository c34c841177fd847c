"""Relation schemas for natural-join queries.

A relation schema is a named, ordered list of attribute names.  Natural-join
semantics are used throughout the library: two relations join on every
attribute name they share.  Self-joins (the same underlying data playing
several roles in a query, as in the paper's graph queries) are expressed by
giving each role its own :class:`RelationSchema` with renamed attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping, Sequence, Tuple


class _EmptyGetter:
    """``row -> ()`` — the zero-position projection (picklable singleton)."""

    def __call__(self, row):
        return ()

    def __reduce__(self):
        return (_EmptyGetter, ())


class _SingleGetter:
    """``row -> (row[i],)`` — a one-position projection that stays a tuple.

    ``operator.itemgetter(i)`` would return the bare value; this wrapper
    keeps the tuple shape the projection contract requires.  Unlike a
    closure it pickles, which the checkpoint subsystem's generic-pickle
    fallback relies on (getters are cached inside schemas, relations and
    delta plans, so they ride along with any pickled sampler).
    """

    __slots__ = ("position",)

    def __init__(self, position: int) -> None:
        self.position = position

    def __call__(self, row):
        return (row[self.position],)

    def __reduce__(self):
        return (_SingleGetter, (self.position,))


def tuple_getter(positions: Tuple[int, ...]):
    """A fast ``row -> tuple(row[i] for i in positions)`` function.

    Runs at C speed (``operator.itemgetter``) for two or more positions;
    projection hot paths resolve positions once and reuse the getter.  All
    returned getters are picklable (``itemgetter`` natively, the zero- and
    one-position wrappers via ``__reduce__``), so objects that cache them
    can be serialised by the checkpoint subsystem.
    """
    if not positions:
        return _EmptyGetter()
    if len(positions) == 1:
        return _SingleGetter(positions[0])
    return itemgetter(*positions)


def canonical_attrs(attrs: Iterable[str]) -> Tuple[str, ...]:
    """Return attributes as a sorted tuple (the canonical projection order).

    All projections in the library order their values by this canonical
    attribute order so that two projections onto the same attribute set are
    directly comparable.
    """
    return tuple(sorted(set(attrs)))


@dataclass(frozen=True)
class RelationSchema:
    """An ordered relation schema.

    Parameters
    ----------
    name:
        Unique name of the (logical) relation within a query.
    attrs:
        Ordered attribute names.  Order matters for how raw value tuples are
        interpreted; attribute names must be unique within the relation.
    """

    name: str
    attrs: Tuple[str, ...]

    def __post_init__(self) -> None:
        attrs = tuple(self.attrs)
        if len(set(attrs)) != len(attrs):
            raise ValueError(f"duplicate attributes in relation {self.name!r}: {attrs}")
        if not attrs:
            raise ValueError(f"relation {self.name!r} must have at least one attribute")
        object.__setattr__(self, "attrs", attrs)
        # Memoised results of positions_of: projections sit on every index
        # hot path and always target the same handful of attribute subsets.
        object.__setattr__(self, "_positions_cache", {})
        object.__setattr__(self, "_getter_cache", {})

    @property
    def attr_set(self) -> frozenset:
        """The attribute names as a frozen set."""
        return frozenset(self.attrs)

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attrs)

    def positions_of(self, attrs: Iterable[str]) -> Tuple[int, ...]:
        """Positions (in this schema's order) of ``attrs`` in canonical order.

        Raises ``KeyError`` if any attribute is not part of the schema.
        """
        key = attrs if isinstance(attrs, tuple) else tuple(attrs)
        cached = self._positions_cache.get(key)
        if cached is None:
            index = {a: i for i, a in enumerate(self.attrs)}
            cached = tuple(index[a] for a in canonical_attrs(key))
            self._positions_cache[key] = cached
        return cached

    def project(self, row: Sequence, attrs: Iterable[str]) -> Tuple:
        """Project ``row`` (ordered by this schema) onto ``attrs``.

        The result is a value tuple ordered by the canonical attribute order,
        so projections from different relations onto the same attribute set
        are directly comparable.
        """
        key = attrs if isinstance(attrs, tuple) else tuple(attrs)
        getter = self._getter_cache.get(key)
        if getter is None:
            getter = tuple_getter(self.positions_of(key))
            self._getter_cache[key] = getter
        return getter(row)

    def row_from_mapping(self, values: Mapping[str, object]) -> Tuple:
        """Build a row tuple from a ``{attribute: value}`` mapping."""
        missing = [a for a in self.attrs if a not in values]
        if missing:
            raise KeyError(f"missing attributes {missing} for relation {self.name!r}")
        return tuple(values[a] for a in self.attrs)

    def row_to_mapping(self, row: Sequence) -> dict:
        """Turn a row tuple into a ``{attribute: value}`` dict."""
        if len(row) != len(self.attrs):
            raise ValueError(
                f"row arity {len(row)} does not match relation {self.name!r} "
                f"arity {len(self.attrs)}"
            )
        return dict(zip(self.attrs, row))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}({', '.join(self.attrs)})"


@dataclass(frozen=True)
class KeyConstraint:
    """A (primary) key constraint: ``attrs`` is a key of relation ``relation``."""

    relation: str
    attrs: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "attrs", canonical_attrs(self.attrs))
