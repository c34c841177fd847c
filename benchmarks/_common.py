"""Shared configuration and helpers for the benchmark suite.

Every benchmark reproduces one figure or table of the paper's Section 6 at a
scale a pure-Python implementation can handle (each module's docstring names
its data and scale substitutions).  Two entry points per module:

* ``test_*`` functions — collected by ``pytest benchmarks/ --benchmark-only``;
  they run a representative configuration under ``pytest-benchmark``.
* ``main()`` — prints the full table/series for the figure (reduced scale).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.core.reservoir_join import ReservoirJoin
from repro.baselines.sjoin import SJoin
from repro.cyclic.cyclic_join import CyclicReservoirJoin
from repro.relational.query import JoinQuery
from repro.relational.stream import StreamTuple
from repro.workloads import graph, ldbc, tpcds

# Scale knobs (kept deliberately small: the comparison SJoin baseline is
# quadratic in the worst case and pure Python is slow).
GRAPH_EDGES = 1500
GRAPH_EDGES_SMALL = 250
GRAPH_SAMPLE_SIZE = 1000
RELATIONAL_SAMPLE_SIZE = 2000
TPCDS_SCALE = 0.15
LDBC_SCALE = 0.4
SEED = 2024


def graph_edges(n_edges: int = GRAPH_EDGES, seed: int = SEED) -> List[Tuple[int, int]]:
    """The synthetic Epinions-like edge set used by the graph benchmarks."""
    return graph.epinions_like(n_edges, random.Random(seed))


def graph_stream(query: JoinQuery, n_edges: int = GRAPH_EDGES, seed: int = SEED):
    """Insertion stream for a graph query over the shared synthetic graph."""
    edges = graph_edges(n_edges, seed)
    return graph.edge_stream(query, edges, random.Random(seed + 1))


def tpcds_workload(name: str, scale: float = TPCDS_SCALE, seed: int = SEED):
    """(query, stream) for one of QX / QY / QZ at the benchmark scale."""
    rng = random.Random(seed)
    data = tpcds.generate(scale, rng)
    return tpcds.WORKLOADS[name](data, rng)


def ldbc_workload(scale: float = LDBC_SCALE, seed: int = SEED):
    """(query, stream) for LDBC BI Q10 at the benchmark scale."""
    rng = random.Random(seed)
    data = ldbc.generate(scale, rng)
    return ldbc.q10_workload(data, rng)


def make_rsjoin(query: JoinQuery, k: int, seed: int = SEED, **kwargs) -> ReservoirJoin:
    """RSJoin with a fixed seed."""
    return ReservoirJoin(query, k, rng=random.Random(seed), **kwargs)


def make_sjoin(query: JoinQuery, k: int, seed: int = SEED, **kwargs) -> SJoin:
    """SJoin with a fixed seed."""
    return SJoin(query, k, rng=random.Random(seed), **kwargs)


def make_cyclic(query: JoinQuery, k: int, seed: int = SEED, **kwargs) -> CyclicReservoirJoin:
    """Cyclic (GHD-based) RSJoin with a fixed seed."""
    return CyclicReservoirJoin(query, k, rng=random.Random(seed), **kwargs)


def drain(sampler, stream) -> None:
    """Feed a whole stream to a sampler (the timed unit of most benchmarks)."""
    for item in stream:
        sampler.insert(item.relation, item.row)
