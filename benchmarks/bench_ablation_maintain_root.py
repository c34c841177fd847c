"""Ablation: cost of maintaining the full-join sampling structure.

``DynamicJoinIndex`` can optionally maintain a bucket family at each root
(``maintain_root=True``), which upgrades it from a delta-batch index (all the
reservoir pipeline needs) to a full dynamic sampling-over-joins index
(operation (2) of Theorem 4.2: uniform samples from the *current* join in
O(log N)).  This ablation measures what that extra capability costs during
maintenance on the line-3 workload.
"""

from __future__ import annotations

from repro.index.dynamic_index import DynamicJoinIndex
from repro.workloads import graph

from harness import format_table, run_with_timeout
from _common import GRAPH_EDGES, GRAPH_EDGES_SMALL, graph_stream


class _IndexAdapter:
    def __init__(self, query, maintain_root):
        self.index = DynamicJoinIndex(query, maintain_root=maintain_root)

    def insert(self, relation, row):
        self.index.insert(relation, row)

    def statistics(self):
        return {"propagations": self.index.propagations, "stored": self.index.size}


def ablation_rows(n_edges: int = GRAPH_EDGES):
    query = graph.line_query(3)
    stream = graph_stream(query, n_edges)
    rows = []
    for label, flag in (("delta batches only", False), ("with full-join sampling", True)):
        result = run_with_timeout(label, _IndexAdapter(query, flag), stream)
        row = {"configuration": label, "seconds": result.elapsed_seconds}
        row.update(result.statistics)
        rows.append(row)
    return rows


def test_index_without_root(benchmark):
    query = graph.line_query(3)
    stream = graph_stream(query, GRAPH_EDGES_SMALL)
    benchmark.pedantic(
        lambda: run_with_timeout("no-root", _IndexAdapter(query, False), stream),
        rounds=1,
        iterations=1,
    )


def test_index_with_root(benchmark):
    query = graph.line_query(3)
    stream = graph_stream(query, GRAPH_EDGES_SMALL)
    benchmark.pedantic(
        lambda: run_with_timeout("root", _IndexAdapter(query, True), stream),
        rounds=1,
        iterations=1,
    )


def main() -> None:
    print(format_table(ablation_rows(), title="Ablation — maintaining the full-join sampling root"))


if __name__ == "__main__":
    main()
