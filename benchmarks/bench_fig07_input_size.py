"""Figure 7: running time versus input size and join size (line-3 join).

Paper setup: line-3 over Epinions, k = 10,000, total execution time recorded
after every 10% of the input.  The join size grows super-linearly with the
input while RSJoin's cumulative time grows essentially linearly; SJoin's time
tracks the join size instead.

Reproduction: the same progress measurement over the synthetic graph.  The
"join size" series is the length of the simulated join-result stream
(RSJoin's |ΔJ| total, which is Θ(join size)).
"""

from __future__ import annotations

from repro.workloads import graph

from harness import format_series, progress_run
from _common import GRAPH_EDGES, GRAPH_EDGES_SMALL, SEED, graph_stream, make_rsjoin, make_sjoin

SAMPLE_SIZE = 1000


def figure7_series(n_edges: int = GRAPH_EDGES):
    """Cumulative time for RSJoin/SJoin and join-size growth per 10% of input."""
    query = graph.line_query(3)
    stream = graph_stream(query, n_edges, seed=SEED + 7)
    rs_points = progress_run(make_rsjoin(query, SAMPLE_SIZE), stream, measure_memory=False)
    sj_points = progress_run(make_sjoin(query, SAMPLE_SIZE), stream, measure_memory=False)
    fractions = [round(point.fraction, 2) for point in rs_points]
    return fractions, {
        "RSJoin_seconds": [round(point.elapsed_seconds, 4) for point in rs_points],
        "SJoin_seconds": [round(point.elapsed_seconds, 4) for point in sj_points],
        "join_results_simulated": [point.simulated_stream_length for point in rs_points],
        "input_tuples": [point.tuples_processed for point in rs_points],
    }


def test_progress_rsjoin(benchmark):
    query = graph.line_query(3)
    stream = graph_stream(query, GRAPH_EDGES_SMALL, seed=SEED + 7)
    benchmark.pedantic(
        lambda: progress_run(make_rsjoin(query, SAMPLE_SIZE), stream, measure_memory=False),
        rounds=1,
        iterations=1,
    )


def test_progress_sjoin(benchmark):
    query = graph.line_query(3)
    stream = graph_stream(query, GRAPH_EDGES_SMALL, seed=SEED + 7)
    benchmark.pedantic(
        lambda: progress_run(make_sjoin(query, SAMPLE_SIZE), stream, measure_memory=False),
        rounds=1,
        iterations=1,
    )


def main() -> None:
    fractions, series = figure7_series()
    print(
        format_series(
            series, fractions, x_label="input_fraction",
            title="Figure 7 — running time vs input size / join size (line-3)",
        )
    )


if __name__ == "__main__":
    main()
