"""Figure 11: memory usage versus input size (line-3 and Q10).

Paper setup: memory recorded after every 10% of the input for line-3
(RSJoin vs SJoin) and Q10 (RSJoin_opt vs SJoin_opt).  Both algorithms use
memory linear in the *input* size even though the join size explodes, and
RSJoin needs a fraction of SJoin's memory (60% on line-3, 31% on Q10).

Reproduction: the same checkpointed measurement using a deep-``getsizeof``
estimate of each sampler's object graph.
"""

from __future__ import annotations

from repro.stats.memory import megabytes
from repro.workloads import graph

from harness import format_series, progress_run
from _common import (
    GRAPH_EDGES_SMALL,
    RELATIONAL_SAMPLE_SIZE,
    SEED,
    graph_stream,
    ldbc_workload,
    make_rsjoin,
    make_sjoin,
)

LINE3_SAMPLE_SIZE = 500


def line3_memory_series(n_edges: int = 2 * GRAPH_EDGES_SMALL):
    query = graph.line_query(3)
    stream = graph_stream(query, n_edges, seed=SEED + 11)
    rs_points = progress_run(make_rsjoin(query, LINE3_SAMPLE_SIZE), stream)
    sj_points = progress_run(make_sjoin(query, LINE3_SAMPLE_SIZE), stream)
    fractions = [round(point.fraction, 2) for point in rs_points]
    return fractions, {
        "RSJoin_MiB": [round(megabytes(point.memory_bytes), 3) for point in rs_points],
        "SJoin_MiB": [round(megabytes(point.memory_bytes), 3) for point in sj_points],
        "input_tuples": [point.tuples_processed for point in rs_points],
    }


def q10_memory_series(scale: float = 0.3):
    query, stream = ldbc_workload(scale=scale)
    rs_points = progress_run(
        make_rsjoin(query, RELATIONAL_SAMPLE_SIZE, foreign_key=True, grouping=True), stream
    )
    sj_points = progress_run(
        make_sjoin(query, RELATIONAL_SAMPLE_SIZE, foreign_key=True), stream
    )
    fractions = [round(point.fraction, 2) for point in rs_points]
    return fractions, {
        "RSJoin_opt_MiB": [round(megabytes(point.memory_bytes), 3) for point in rs_points],
        "SJoin_opt_MiB": [round(megabytes(point.memory_bytes), 3) for point in sj_points],
        "input_tuples": [point.tuples_processed for point in rs_points],
    }


def test_line3_memory_rsjoin(benchmark):
    query = graph.line_query(3)
    stream = graph_stream(query, GRAPH_EDGES_SMALL, seed=SEED + 11)
    benchmark.pedantic(
        lambda: progress_run(make_rsjoin(query, LINE3_SAMPLE_SIZE), stream),
        rounds=1,
        iterations=1,
    )


def test_line3_memory_sjoin(benchmark):
    query = graph.line_query(3)
    stream = graph_stream(query, GRAPH_EDGES_SMALL, seed=SEED + 11)
    benchmark.pedantic(
        lambda: progress_run(make_sjoin(query, LINE3_SAMPLE_SIZE), stream),
        rounds=1,
        iterations=1,
    )


def main() -> None:
    fractions, series = line3_memory_series()
    print(
        format_series(
            series, fractions, x_label="input_fraction",
            title="Figure 11a — memory vs input size (line-3)",
        )
    )
    fractions, series = q10_memory_series()
    print()
    print(
        format_series(
            series, fractions, x_label="input_fraction",
            title="Figure 11b — memory vs input size (Q10)",
        )
    )


if __name__ == "__main__":
    main()
