"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random
from typing import List, Sequence, Tuple

import pytest

from repro.relational import JoinQuery, StreamTuple


# ---------------------------------------------------------------------- #
# Markers
# ---------------------------------------------------------------------- #
def pytest_collection_modifyitems(items) -> None:
    """Auto-mark everything under tests/statistical/ as ``slow``.

    The statistical suites run samplers hundreds of times per assertion; the
    default run (`python -m pytest -x -q`) deselects them via the
    ``-m "not slow"`` addopts in pytest.ini.  Run them with ``pytest -m slow``.
    """
    for item in items:
        if "statistical" in str(getattr(item, "fspath", "")):
            item.add_marker(pytest.mark.slow)


def stat_trials(default: int) -> int:
    """Trial count for the statistical suites, tunable via the environment.

    ``REPRO_STAT_TRIALS`` scales every suite proportionally: a suite whose
    full-strength count is ``default`` runs ``default * REPRO_STAT_TRIALS /
    300`` trials (minimum 20, so the chi-square approximation stays sane).
    ``REPRO_STAT_TRIALS=60`` is the CI smoke profile — the whole ``-m slow``
    selection finishes in well under two minutes while still flagging gross
    distributional bugs; leave it unset for full statistical power.
    """
    base = int(os.environ.get("REPRO_STAT_TRIALS", "300"))
    return max(20, default * base // 300)


# ---------------------------------------------------------------------- #
# Queries used across many tests
# ---------------------------------------------------------------------- #
@pytest.fixture
def two_table_query() -> JoinQuery:
    return JoinQuery.from_spec("two", {"R1": ["x", "y"], "R2": ["y", "z"]})


@pytest.fixture
def line3_query() -> JoinQuery:
    return JoinQuery.from_spec(
        "line-3", {"R1": ["x1", "x2"], "R2": ["x2", "x3"], "R3": ["x3", "x4"]}
    )


@pytest.fixture
def star3_query() -> JoinQuery:
    return JoinQuery.from_spec(
        "star-3", {"R1": ["x0", "x1"], "R2": ["x0", "x2"], "R3": ["x0", "x3"]}
    )


@pytest.fixture
def triangle_query() -> JoinQuery:
    return JoinQuery.from_spec(
        "triangle", {"R1": ["x1", "x2"], "R2": ["x2", "x3"], "R3": ["x1", "x3"]}
    )


# ---------------------------------------------------------------------- #
# Stream builders
# ---------------------------------------------------------------------- #
def make_edges(n_nodes: int, n_edges: int, seed: int) -> List[Tuple[int, int]]:
    """Small deterministic random edge set (may contain self-loops removed)."""
    rng = random.Random(seed)
    edges = set()
    attempts = 0
    while len(edges) < n_edges and attempts < 50 * n_edges:
        attempts += 1
        edge = (rng.randrange(n_nodes), rng.randrange(n_nodes))
        if edge[0] != edge[1]:
            edges.add(edge)
    return sorted(edges)


def make_graph_stream(
    query: JoinQuery, edges: Sequence[Tuple[int, int]], seed: int
) -> List[StreamTuple]:
    """Every relation receives every edge, independently shuffled and interleaved."""
    rng = random.Random(seed)
    items: List[StreamTuple] = []
    for relation in query.relation_names:
        rows = [tuple(edge) for edge in edges]
        rng.shuffle(rows)
        items.extend(StreamTuple(relation, row) for row in rows)
    rng.shuffle(items)
    return items


def random_stream(query: JoinQuery, rng: random.Random, n: int, domain: int) -> List[StreamTuple]:
    """``n`` uniformly random rows over ``range(domain)``, each to a random relation."""
    names = query.relation_names
    stream = []
    for _ in range(n):
        relation = rng.choice(names)
        arity = query.relation(relation).arity
        stream.append(
            StreamTuple(relation, tuple(rng.randrange(domain) for _ in range(arity)))
        )
    return stream


def materialize_batch(batch) -> List[object]:
    """Read every position of a batch, returning the real items in order."""
    items = (batch._retrieve(position) for position in range(len(batch)))
    return [item for item in items if item is not None]


__all__ = [
    "stat_trials",
    "make_edges",
    "make_graph_stream",
    "random_stream",
    "materialize_batch",
]
