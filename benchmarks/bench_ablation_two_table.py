"""Ablation: the exact two-table fast path vs the generic dynamic index.

Section 4.1 observes that the two-table join needs none of the approximate
machinery: the exact index has O(1) updates, 1-dense batches and exact
counts.  This ablation compares three ways to maintain a reservoir over a
two-table join: the generic ``ReservoirJoin`` (approximate index), a
reservoir driven by the exact ``TwoTableIndex``, and the SJoin baseline.
"""

from __future__ import annotations

import random

from repro.core.batch_reservoir import BatchedPredicateReservoir
from repro.index.two_table import TwoTableIndex
from repro.workloads import graph

from harness import format_table, run_with_timeout
from _common import GRAPH_EDGES, GRAPH_SAMPLE_SIZE, SEED, graph_stream, make_rsjoin, make_sjoin


class TwoTableReservoir:
    """Reservoir sampling over a two-table join using the exact fast path."""

    def __init__(self, query, k, seed=SEED):
        self.index = TwoTableIndex(query)
        self.reservoir = BatchedPredicateReservoir(k, rng=random.Random(seed))

    def insert(self, relation, row):
        if not self.index.insert(relation, row):
            return
        self.reservoir.process_batch(self.index.delta_batch(relation, row))

    @property
    def sample_size(self):
        return len(self.reservoir)

    def statistics(self):
        return {"sample_size": self.sample_size}


def ablation_rows(n_edges: int = GRAPH_EDGES):
    query = graph.line_query(2)
    stream = graph_stream(query, n_edges)
    rows = []
    samplers = {
        "ReservoirJoin (generic index)": make_rsjoin(query, GRAPH_SAMPLE_SIZE),
        "TwoTableIndex (exact fast path)": TwoTableReservoir(query, GRAPH_SAMPLE_SIZE),
        "SJoin": make_sjoin(query, GRAPH_SAMPLE_SIZE),
    }
    for label, sampler in samplers.items():
        result = run_with_timeout(label, sampler, stream)
        rows.append(
            {
                "configuration": label,
                "seconds": result.elapsed_seconds,
                "sample": result.statistics.get("sample_size", ""),
            }
        )
    return rows


def test_two_table_generic(benchmark):
    query = graph.line_query(2)
    stream = graph_stream(query, GRAPH_EDGES // 3)
    benchmark.pedantic(
        lambda: run_with_timeout("generic", make_rsjoin(query, GRAPH_SAMPLE_SIZE), stream),
        rounds=1,
        iterations=1,
    )


def test_two_table_fast_path(benchmark):
    query = graph.line_query(2)
    stream = graph_stream(query, GRAPH_EDGES // 3)
    benchmark.pedantic(
        lambda: run_with_timeout("exact", TwoTableReservoir(query, GRAPH_SAMPLE_SIZE), stream),
        rounds=1,
        iterations=1,
    )


def main() -> None:
    print(format_table(ablation_rows(), title="Ablation — two-table join fast path"))


if __name__ == "__main__":
    main()
