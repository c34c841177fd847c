"""Figure 6: per-tuple update-time distribution (line-4 join).

Paper setup: sampling disabled, per-tuple index maintenance time measured on
the line-4 join over Epinions.  RSJoin's updates cluster around 10 µs with an
average of 13 µs and rare spikes (the amortised O(log N) bound); SJoin's
updates range over five orders of magnitude with an average of 1.4 ms.

Reproduction: same measurement on the synthetic graph.  The absolute times
are Python-level, but the two distributions' relationship (RSJoin's mean and
tail far below SJoin's) is the reproduced shape.
"""

from __future__ import annotations

from repro.index.dynamic_index import DynamicJoinIndex
from repro.baselines.sjoin import ExactTreeIndex
from repro.relational.stream import as_relation_rows
from repro.relational.database import Database
from repro.relational.jointree import JoinTree
from repro.workloads import graph

from harness import format_table, per_chunk_times, per_insert_times, percentile
from _common import GRAPH_EDGES_SMALL, SEED, graph_stream

QUERY_LENGTH = 4


class _IndexOnly:
    """Adapter exposing the pure-maintenance path of RSJoin (no sampling)."""

    def __init__(self, query):
        self.index = DynamicJoinIndex(query, maintain_root=False)

    def insert(self, relation, row):
        self.index.insert(relation, row)


class _IndexOnlyBatched:
    """Pure-maintenance path of RSJoin driven through the bulk index API."""

    def __init__(self, query):
        self.index = DynamicJoinIndex(query, maintain_root=False)

    def insert_batch(self, items):
        groups = {}
        for relation, row in as_relation_rows(items):
            groups.setdefault(relation, []).append(row)
        for relation, rows in groups.items():
            self.index.insert_rows(relation, rows)


class _SJoinIndexOnly:
    """Adapter exposing the pure-maintenance path of SJoin (no sampling)."""

    def __init__(self, query):
        self.database = Database(query)
        tree = JoinTree(query)
        self.trees = [
            ExactTreeIndex(tree.rooted_at(name), self.database)
            for name in query.relation_names
        ]

    def insert(self, relation, row):
        if not self.database.insert(relation, row):
            return
        for index in self.trees:
            index.insert_row(relation, row)


def update_time_rows(n_edges: int = GRAPH_EDGES_SMALL, chunk_size: int = 256):
    """Summary statistics of the update-time distributions (both RSJoin
    ingestion modes plus SJoin); the batched row reports amortised
    per-tuple times (chunk time spread over its tuples)."""
    query = graph.line_query(QUERY_LENGTH)
    stream = graph_stream(query, n_edges, seed=SEED + 6)
    rows = []
    measured = (
        ("RSJoin", lambda: per_insert_times(_IndexOnly(query), stream)),
        (
            "RSJoin_batch",
            lambda: per_chunk_times(_IndexOnlyBatched(query), stream, chunk_size),
        ),
        ("SJoin", lambda: per_insert_times(_SJoinIndexOnly(query), stream)),
    )
    for name, run in measured:
        latencies = run()
        rows.append(
            {
                "algorithm": name,
                "inserts": len(latencies),
                "mean_us": 1e6 * sum(latencies) / len(latencies),
                "median_us": 1e6 * percentile(latencies, 0.5),
                "p99_us": 1e6 * percentile(latencies, 0.99),
                "max_us": 1e6 * max(latencies),
            }
        )
    return rows


def test_update_time_rsjoin(benchmark):
    query = graph.line_query(QUERY_LENGTH)
    stream = graph_stream(query, GRAPH_EDGES_SMALL, seed=SEED + 6)
    benchmark.pedantic(
        lambda: per_insert_times(_IndexOnly(query), stream), rounds=1, iterations=1
    )


def test_update_time_sjoin(benchmark):
    query = graph.line_query(QUERY_LENGTH)
    stream = graph_stream(query, GRAPH_EDGES_SMALL, seed=SEED + 6)
    benchmark.pedantic(
        lambda: per_insert_times(_SJoinIndexOnly(query), stream), rounds=1, iterations=1
    )


def main() -> None:
    print(format_table(update_time_rows(600), title="Figure 6 — per-tuple update time (line-4)"))


if __name__ == "__main__":
    main()
