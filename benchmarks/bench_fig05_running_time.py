"""Figure 5: total running time of every algorithm over every query.

Paper setup: Epinions for the graph queries (line-3/4/5, star-4/5/6,
dumbbell) with k = 100,000; TPC-DS SF-10 for QX/QY/QZ and LDBC SF-1 for Q10
with k = 1,000,000; 12-hour timeout.  Headline results: RSJoin is always the
fastest (4.6x-147.6x over SJoin), SJoin cannot finish line-5 and QZ, and only
RSJoin supports the cyclic dumbbell query.

Reproduction: synthetic Epinions-like graph / TPC-DS-like / LDBC-like data at
reduced scale, k scaled down proportionally, and a scaled-down timeout for
the baselines.  The expected *shape*: RSJoin fastest everywhere, SJoin_opt
between, dumbbell only on RSJoin.
"""

from __future__ import annotations

from repro.workloads import graph

from harness import format_table, run_sampler_batched, run_with_timeout
from _common import (  # noqa: E402 (resolved relative to this directory)
    GRAPH_EDGES,
    GRAPH_EDGES_SMALL,
    GRAPH_SAMPLE_SIZE,
    RELATIONAL_SAMPLE_SIZE,
    graph_stream,
    ldbc_workload,
    make_cyclic,
    make_rsjoin,
    make_sjoin,
    tpcds_workload,
)

#: Baselines that exceed this budget are reported as "DNF", mirroring the
#: paper's 12-hour timeout at laptop scale.
TIMEOUT_SECONDS = 60.0


# --------------------------------------------------------------------- #
# pytest-benchmark targets (representative subset, small scale)
# --------------------------------------------------------------------- #
def test_line3_rsjoin(benchmark):
    query = graph.line_query(3)
    stream = graph_stream(query, GRAPH_EDGES_SMALL)
    benchmark.pedantic(
        lambda: run_with_timeout("RSJoin", make_rsjoin(query, GRAPH_SAMPLE_SIZE), stream),
        rounds=1,
        iterations=1,
    )


def test_line3_rsjoin_batched(benchmark):
    query = graph.line_query(3)
    stream = graph_stream(query, GRAPH_EDGES_SMALL)
    benchmark.pedantic(
        lambda: run_sampler_batched(
            "RSJoin_batch", make_rsjoin(query, GRAPH_SAMPLE_SIZE), stream
        ),
        rounds=1,
        iterations=1,
    )


def test_line3_sjoin(benchmark):
    query = graph.line_query(3)
    stream = graph_stream(query, GRAPH_EDGES_SMALL)
    benchmark.pedantic(
        lambda: run_with_timeout("SJoin", make_sjoin(query, GRAPH_SAMPLE_SIZE), stream),
        rounds=1,
        iterations=1,
    )


def test_line4_rsjoin(benchmark):
    query = graph.line_query(4)
    stream = graph_stream(query, GRAPH_EDGES_SMALL)
    benchmark.pedantic(
        lambda: run_with_timeout("RSJoin", make_rsjoin(query, GRAPH_SAMPLE_SIZE), stream),
        rounds=1,
        iterations=1,
    )


def test_star4_rsjoin(benchmark):
    query = graph.star_query(4)
    stream = graph_stream(query, GRAPH_EDGES_SMALL)
    benchmark.pedantic(
        lambda: run_with_timeout(
            "RSJoin", make_rsjoin(query, GRAPH_SAMPLE_SIZE, grouping=True), stream
        ),
        rounds=1,
        iterations=1,
    )


def test_dumbbell_rsjoin(benchmark):
    query = graph.dumbbell_query()
    stream = graph_stream(query, GRAPH_EDGES_SMALL)
    benchmark.pedantic(
        lambda: run_with_timeout("RSJoin", make_cyclic(query, GRAPH_SAMPLE_SIZE), stream),
        rounds=1,
        iterations=1,
    )


def test_qz_rsjoin_opt(benchmark):
    query, stream = tpcds_workload("QZ")
    benchmark.pedantic(
        lambda: run_with_timeout(
            "RSJoin_opt",
            make_rsjoin(query, RELATIONAL_SAMPLE_SIZE, foreign_key=True, grouping=True),
            stream,
        ),
        rounds=1,
        iterations=1,
    )


def test_qz_sjoin_opt(benchmark):
    query, stream = tpcds_workload("QZ")
    benchmark.pedantic(
        lambda: run_with_timeout(
            "SJoin_opt", make_sjoin(query, RELATIONAL_SAMPLE_SIZE, foreign_key=True), stream
        ),
        rounds=1,
        iterations=1,
    )


def test_q10_rsjoin_opt(benchmark):
    query, stream = ldbc_workload()
    benchmark.pedantic(
        lambda: run_with_timeout(
            "RSJoin_opt",
            make_rsjoin(query, RELATIONAL_SAMPLE_SIZE, foreign_key=True, grouping=True),
            stream,
        ),
        rounds=1,
        iterations=1,
    )


# --------------------------------------------------------------------- #
# Full Figure-5 table
# --------------------------------------------------------------------- #
def figure5_rows(timeout_seconds: float = TIMEOUT_SECONDS):
    """All (query, algorithm, seconds) rows of the reduced-scale Figure 5."""
    rows = []

    def record(query_name, algorithm, result):
        if result is None:
            rows.append({"query": query_name, "algorithm": algorithm, "seconds": float("inf")})
        else:
            rows.append(
                {
                    "query": query_name,
                    "algorithm": algorithm,
                    "seconds": result.elapsed_seconds,
                    "sample": result.statistics.get("sample_size", ""),
                }
            )

    graph_queries = {
        "line-3": graph.line_query(3),
        "line-4": graph.line_query(4),
        "line-5": graph.line_query(5),
        "star-4": graph.star_query(4),
        "star-5": graph.star_query(5),
        "star-6": graph.star_query(6),
    }
    for name, query in graph_queries.items():
        stream = graph_stream(query, GRAPH_EDGES)
        record(name, "RSJoin", run_with_timeout("RSJoin", make_rsjoin(query, GRAPH_SAMPLE_SIZE), stream))
        record(
            name,
            "RSJoin_batch",
            run_sampler_batched(
                "RSJoin_batch", make_rsjoin(query, GRAPH_SAMPLE_SIZE), stream
            ),
        )
        record(
            name,
            "SJoin",
            run_with_timeout("SJoin", make_sjoin(query, GRAPH_SAMPLE_SIZE), stream, timeout_seconds),
        )
    dumbbell = graph.dumbbell_query()
    stream = graph_stream(dumbbell, GRAPH_EDGES)
    record(
        "dumbbell",
        "RSJoin",
        run_with_timeout("RSJoin", make_cyclic(dumbbell, GRAPH_SAMPLE_SIZE), stream),
    )
    rows.append({"query": "dumbbell", "algorithm": "SJoin", "seconds": float("inf")})

    for name in ("QX", "QY", "QZ"):
        query, stream = tpcds_workload(name)
        record(name, "RSJoin", run_with_timeout("RSJoin", make_rsjoin(query, RELATIONAL_SAMPLE_SIZE), stream))
        record(
            name,
            "RSJoin_opt_batch",
            run_sampler_batched(
                "RSJoin_opt_batch",
                make_rsjoin(query, RELATIONAL_SAMPLE_SIZE, foreign_key=True, grouping=True),
                stream,
            ),
        )
        record(
            name,
            "RSJoin_opt",
            run_with_timeout(
                "RSJoin_opt",
                make_rsjoin(query, RELATIONAL_SAMPLE_SIZE, foreign_key=True, grouping=True),
                stream,
            ),
        )
        record(
            name,
            "SJoin_opt",
            run_with_timeout(
                "SJoin_opt",
                make_sjoin(query, RELATIONAL_SAMPLE_SIZE, foreign_key=True),
                stream,
                timeout_seconds,
            ),
        )
    query, stream = ldbc_workload()
    record("Q10", "RSJoin_opt", run_with_timeout(
        "RSJoin_opt", make_rsjoin(query, RELATIONAL_SAMPLE_SIZE, foreign_key=True, grouping=True), stream
    ))
    record("Q10", "SJoin_opt", run_with_timeout(
        "SJoin_opt", make_sjoin(query, RELATIONAL_SAMPLE_SIZE, foreign_key=True), stream, timeout_seconds
    ))
    return rows


def main() -> None:
    print(format_table(figure5_rows(), title="Figure 5 — total running time (reduced scale)"))


if __name__ == "__main__":
    main()
