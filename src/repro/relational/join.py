"""Generic natural-join evaluation.

This module is the library's reference join engine.  It is used for

* ground truth in the test suite (full join results and join sizes),
* the symmetric-hash-join baseline (delta enumeration per arriving tuple),
* maintaining the materialised bag relations of the GHD-based cyclic
  algorithm (Section 5).

The evaluator is a relation-at-a-time backtracking join: relations are
ordered so that each one shares attributes with the already-bound prefix
whenever possible, and candidate rows are fetched through the maintained
hash indexes of :class:`~repro.relational.relation.Relation`.  This is not a
worst-case-optimal join, but it is exact, handles cyclic queries, and is fast
enough for the scaled-down instances the reproduction runs on.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .database import Database
from .jointree import JoinTree
from .query import JoinQuery
from .schema import canonical_attrs, tuple_getter


def _relation_order(query: JoinQuery, first: Optional[str] = None) -> List[str]:
    """Order relations so each shares attributes with the previous ones."""
    remaining = list(query.relation_names)
    order: List[str] = []
    bound: set = set()
    if first is not None:
        remaining.remove(first)
        order.append(first)
        bound.update(query.relation(first).attr_set)
    while remaining:
        best = None
        best_overlap = -1
        for name in remaining:
            overlap = len(query.relation(name).attr_set & bound)
            if overlap > best_overlap:
                best = name
                best_overlap = overlap
        assert best is not None
        order.append(best)
        remaining.remove(best)
        bound.update(query.relation(best).attr_set)
    return order


def _extend(
    query: JoinQuery,
    database: Database,
    order: List[str],
    depth: int,
    assignment: Dict[str, object],
) -> Iterator[Dict[str, object]]:
    """Backtracking extension of a partial attribute assignment."""
    if depth == len(order):
        yield dict(assignment)
        return
    name = order[depth]
    schema = query.relation(name)
    relation = database[name]
    bound_attrs = canonical_attrs(a for a in schema.attrs if a in assignment)
    if bound_attrs:
        key = tuple(assignment[a] for a in bound_attrs)
        candidates = relation.semijoin(bound_attrs, key)
    else:
        candidates = relation.rows
    free_attrs = [a for a in schema.attrs if a not in assignment]
    for row in candidates:
        added = []
        consistent = True
        mapping = schema.row_to_mapping(row)
        for attr in free_attrs:
            assignment[attr] = mapping[attr]
            added.append(attr)
        # Bound attributes are consistent by construction of the index lookup.
        if consistent:
            yield from _extend(query, database, order, depth + 1, assignment)
        for attr in added:
            del assignment[attr]


def join_results(query: JoinQuery, database: Database) -> List[Dict[str, object]]:
    """All join results ``Q(R)`` as ``{attribute: value}`` dicts."""
    order = _relation_order(query)
    return list(_extend(query, database, order, 0, {}))


def iter_join_results(query: JoinQuery, database: Database) -> Iterator[Dict[str, object]]:
    """Iterate over ``Q(R)`` without materialising the full result list."""
    order = _relation_order(query)
    yield from _extend(query, database, order, 0, {})


def join_size(query: JoinQuery, database: Database) -> int:
    """``|Q(R)|`` computed by full enumeration (ground truth only)."""
    return sum(1 for _ in iter_join_results(query, database))


def count_results(query: JoinQuery, database: Database) -> int:
    """Exact ``|Q(R)|`` without enumerating the results.

    For acyclic queries the count is computed by the classic bottom-up
    dynamic program over a join tree: each node aggregates, per key tuple,
    the exact number of sub-join results below it, so the total cost is
    ``O(N)`` index lookups instead of ``O(|Q(R)|)`` enumeration steps.  It is
    an oracle: the test suite checks sample sizes against it, and
    :meth:`repro.core.turnstile.TurnstileReservoirJoin.check_invariants`
    runs it on demand.  No ingestion path calls it.  Cyclic queries fall
    back to enumeration.
    """
    if not query.is_acyclic():
        return join_size(query, database)
    rooted = JoinTree(query).rooted_at(query.relation_names[0])
    degrees: Dict[str, Dict[Tuple, int]] = {}
    for name in rooted.bottom_up_order():
        schema = query.relation(name)
        node = rooted.node(name)
        child_info = [
            (degrees[child], tuple_getter(schema.positions_of(rooted.key_of(child))))
            for child in node.children
        ]
        if node.is_root:
            total = 0
            for row in database[name].rows:
                weight = 1
                for degree, project in child_info:
                    weight *= degree.get(project(row), 0)
                    if not weight:
                        break
                total += weight
            return total
        key_of = tuple_getter(schema.positions_of(node.key_attrs))
        counts: Dict[Tuple, int] = {}
        for row in database[name].rows:
            weight = 1
            for degree, project in child_info:
                weight *= degree.get(project(row), 0)
                if not weight:
                    break
            if weight:
                key = key_of(row)
                counts[key] = counts.get(key, 0) + weight
        degrees[name] = counts
    raise AssertionError("unreachable: a rooted join tree always has a root")


def delta_results(
    query: JoinQuery,
    database: Database,
    relation: str,
    row: Sequence,
) -> List[Dict[str, object]]:
    """The delta query ``ΔQ(R, t) = Q(R ∪ {t}) ⋉ t`` (Section 2.1).

    ``database`` must already contain ``row`` in ``relation`` (this matches
    Algorithm 6, where the index is updated before the batch is generated).
    The results are exactly the join results whose projection onto
    ``relation`` equals ``row``.
    """
    schema = query.relation(relation)
    row = tuple(row)
    assignment: Dict[str, object] = dict(zip(schema.attrs, row))
    order = _relation_order(query, first=relation)
    # The first relation is fully bound by ``row``; verify it actually holds
    # the row (otherwise the delta is empty by definition of the semi-join).
    if row not in database[relation]:
        return []
    return list(_extend(query, database, order[1:], 0, assignment))


def iter_delta_results(
    query: JoinQuery,
    database: Database,
    relation: str,
    row: Sequence,
) -> Iterator[Dict[str, object]]:
    """Iterator variant of :func:`delta_results`."""
    schema = query.relation(relation)
    row = tuple(row)
    if row not in database[relation]:
        return
    assignment: Dict[str, object] = dict(zip(schema.attrs, row))
    order = _relation_order(query, first=relation)
    yield from _extend(query, database, order[1:], 0, assignment)


def results_as_tuples(
    query: JoinQuery, results: Iterable[Dict[str, object]]
) -> List[Tuple]:
    """Canonical, hashable form of join results (values in canonical attr order).

    Useful for comparing result sets and counting frequencies in tests.
    """
    attrs = query.output_attrs()
    return [tuple(result[a] for a in attrs) for result in results]
