"""Figure 8: running time versus sample size k (line-3 join).

Paper setup: line-3 over Epinions (N = 508,837 input tuples, 3.7 billion join
results), k swept from 10,000 to 5,000,000.  While k <= N the running time of
RSJoin barely moves (the N log N term dominates); once k exceeds N it starts
growing quickly (the k log N log(N/k) term takes over).  SJoin follows the
same trend but is far slower throughout.

Reproduction: the same sweep with k spanning both sides of the (scaled) input
size N.
"""

from __future__ import annotations

from repro.workloads import graph

from harness import format_series, run_with_timeout
from _common import GRAPH_EDGES, GRAPH_EDGES_SMALL, SEED, graph_stream, make_rsjoin, make_sjoin


def sample_sizes_for(stream_length: int):
    """A k-sweep spanning well below and well above the input size."""
    return [
        max(1, stream_length // 100),
        max(1, stream_length // 10),
        stream_length,
        stream_length * 5,
        stream_length * 20,
    ]


def figure8_series(n_edges: int = GRAPH_EDGES):
    query = graph.line_query(3)
    stream = graph_stream(query, n_edges, seed=SEED + 8)
    sweep = sample_sizes_for(len(stream))
    rs_times = []
    sj_times = []
    for k in sweep:
        rs_times.append(run_with_timeout("RSJoin", make_rsjoin(query, k), stream).elapsed_seconds)
        sj_times.append(run_with_timeout("SJoin", make_sjoin(query, k), stream).elapsed_seconds)
    return sweep, {"RSJoin_seconds": rs_times, "SJoin_seconds": sj_times,
                   "input_size_N": [len(stream)] * len(sweep)}


def test_small_k(benchmark):
    query = graph.line_query(3)
    stream = graph_stream(query, GRAPH_EDGES_SMALL, seed=SEED + 8)
    benchmark.pedantic(
        lambda: run_with_timeout("RSJoin", make_rsjoin(query, 100), stream), rounds=1, iterations=1
    )


def test_large_k(benchmark):
    query = graph.line_query(3)
    stream = graph_stream(query, GRAPH_EDGES_SMALL, seed=SEED + 8)
    benchmark.pedantic(
        lambda: run_with_timeout("RSJoin", make_rsjoin(query, 20 * len(stream)), stream),
        rounds=1,
        iterations=1,
    )


def main() -> None:
    sweep, series = figure8_series()
    print(
        format_series(
            series, sweep, x_label="k",
            title="Figure 8 — running time vs sample size (line-3)",
        )
    )


if __name__ == "__main__":
    main()
