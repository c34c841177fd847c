"""Graph workloads: synthetic edge sets and the paper's graph join queries.

The paper evaluates on the SNAP Epinions who-trusts-whom graph (508,837
directed edges).  That dataset cannot be bundled here, so
:func:`epinions_like` generates a synthetic heavy-tailed directed graph with
the same qualitative properties (skewed in/out degrees, ~7 edges per node),
scaled down to whatever edge count the experiment asks for.  The join queries
— line-k, star-k, triangle and the dumbbell — are built exactly as in the
paper's Appendix A: every logical relation ranges over the full edge set and
receives its own independently shuffled insertion stream.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Optional, Sequence, Tuple

from ..relational.query import JoinQuery
from ..relational.stream import StreamTuple, interleave, stream_from_rows

Edge = Tuple[int, int]


# ---------------------------------------------------------------------- #
# Synthetic graphs
# ---------------------------------------------------------------------- #
def uniform_edges(n_nodes: int, n_edges: int, rng: random.Random) -> List[Edge]:
    """Distinct directed edges with endpoints chosen uniformly at random."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    if n_edges > n_nodes * (n_nodes - 1):
        raise ValueError(
            f"cannot place {n_edges} distinct directed edges on {n_nodes} nodes"
        )
    edges: set = set()
    while len(edges) < n_edges:
        src = rng.randrange(n_nodes)
        dst = rng.randrange(n_nodes)
        if src != dst:
            edges.add((src, dst))
    return list(edges)


def _node_count_for(n_edges: int, edges_per_node: float = 7.0) -> int:
    """A node count that keeps ~``edges_per_node`` average degree but always
    leaves enough room for ``n_edges`` distinct directed edges."""
    import math

    by_density = int(n_edges / edges_per_node)
    by_capacity = int(math.isqrt(max(n_edges, 1))) + 2
    return max(4, by_density, by_capacity)


class _ZipfSampler:
    """Sample node ids with probability proportional to ``1 / rank^skew``."""

    def __init__(self, n: int, skew: float, rng: random.Random) -> None:
        self._rng = rng
        weights = [1.0 / (rank + 1) ** skew for rank in range(n)]
        total = 0.0
        self._cumulative: List[float] = []
        for weight in weights:
            total += weight
            self._cumulative.append(total)
        self._total = total

    def draw(self) -> int:
        return bisect.bisect_left(self._cumulative, self._rng.random() * self._total)


def powerlaw_edges(
    n_nodes: int, n_edges: int, rng: random.Random, skew: float = 0.8
) -> List[Edge]:
    """Distinct directed edges with Zipf-skewed endpoints (heavy-tailed degrees)."""
    if n_edges > n_nodes * (n_nodes - 1):
        raise ValueError(
            f"cannot place {n_edges} distinct directed edges on {n_nodes} nodes"
        )
    sampler = _ZipfSampler(n_nodes, skew, rng)
    edges: set = set()
    attempts = 0
    limit = 100 * max(n_edges, 1)
    while len(edges) < n_edges and attempts < limit:
        attempts += 1
        src = sampler.draw()
        dst = sampler.draw()
        if src != dst:
            edges.add((src, dst))
    if len(edges) < n_edges:
        # The skewed sampler keeps hitting the same hot pairs: top up
        # deterministically with the remaining pairs.
        for src in range(n_nodes):
            for dst in range(n_nodes):
                if len(edges) >= n_edges:
                    break
                if src != dst:
                    edges.add((src, dst))
            if len(edges) >= n_edges:
                break
    return list(edges)[:n_edges]


def epinions_like(n_edges: int, rng: random.Random, skew: float = 0.8) -> List[Edge]:
    """A synthetic stand-in for the Epinions graph at a chosen edge count.

    Epinions has roughly 6.7 edges per node and a heavy-tailed degree
    distribution, which is what drives the join-size explosion in the paper's
    experiments; both properties are preserved here.
    """
    return powerlaw_edges(_node_count_for(n_edges), n_edges, rng, skew=skew)


# ---------------------------------------------------------------------- #
# Query builders (Appendix A)
# ---------------------------------------------------------------------- #
def line_query(length: int) -> JoinQuery:
    """Line-k join: paths of ``length`` edges (``length`` relations)."""
    if length < 1:
        raise ValueError("line queries need at least one relation")
    spec = {
        f"G{i}": [f"x{i}", f"x{i + 1}"] for i in range(1, length + 1)
    }
    return JoinQuery.from_spec(f"line-{length}", spec)


def star_query(arms: int) -> JoinQuery:
    """Star-k join: ``arms`` edges sharing their source vertex."""
    if arms < 1:
        raise ValueError("star queries need at least one relation")
    spec = {f"G{i}": ["x0", f"x{i}"] for i in range(1, arms + 1)}
    return JoinQuery.from_spec(f"star-{arms}", spec)


def triangle_query() -> JoinQuery:
    """The triangle join (cyclic)."""
    return JoinQuery.from_spec(
        "triangle",
        {"G1": ["x1", "x2"], "G2": ["x2", "x3"], "G3": ["x1", "x3"]},
    )


def dumbbell_query() -> JoinQuery:
    """The dumbbell join of Figure 4: two triangles connected by an edge."""
    return JoinQuery.from_spec(
        "dumbbell",
        {
            "G1": ["x1", "x2"],
            "G2": ["x1", "x3"],
            "G3": ["x2", "x3"],
            "G4": ["x5", "x6"],
            "G5": ["x4", "x5"],
            "G6": ["x4", "x6"],
            "G7": ["x3", "x4"],
        },
    )


# ---------------------------------------------------------------------- #
# Streams
# ---------------------------------------------------------------------- #
def edge_stream(
    query: JoinQuery,
    edges: Sequence[Edge],
    rng: random.Random,
    relations: Optional[Sequence[str]] = None,
) -> List[StreamTuple]:
    """The paper's graph-stream setup.

    Every (logical) relation of ``query`` receives the full edge set in its
    own independently shuffled order; the per-relation streams are then
    interleaved uniformly at random.
    """
    names = list(relations) if relations is not None else list(query.relation_names)
    per_relation = []
    for name in names:
        rows = [tuple(edge) for edge in edges]
        rng.shuffle(rows)
        per_relation.append(stream_from_rows(name, rows))
    return interleave(per_relation, rng)


def graph_workload(
    query: JoinQuery,
    n_edges: int,
    rng: random.Random,
    model: str = "powerlaw",
) -> List[StreamTuple]:
    """Generate a synthetic graph and the corresponding insertion stream."""
    if model == "powerlaw":
        edges = epinions_like(n_edges, rng)
    elif model == "uniform":
        edges = uniform_edges(_node_count_for(n_edges), n_edges, rng)
    else:
        raise ValueError(f"unknown graph model {model!r}")
    return edge_stream(query, edges, rng)
