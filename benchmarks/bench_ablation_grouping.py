"""Ablation: the grouping optimisation on graph star joins.

The Figure 9 table studies grouping only on QZ; this ablation isolates the
same effect on a graph query whose middle relations carry payload attributes
(star joins rooted off-centre have none, so we use a star query where the
grouping applies at the hub once it is an internal node of some rooted tree).
The measured quantities are the propagation-loop executions and the total
time, with grouping on and off.
"""

from __future__ import annotations

from repro.workloads import graph

from harness import format_table, run_with_timeout
from _common import GRAPH_EDGES_SMALL, GRAPH_SAMPLE_SIZE, graph_stream, make_rsjoin


def ablation_rows(arms: int = 4, n_edges: int = 2 * GRAPH_EDGES_SMALL):
    query = graph.star_query(arms)
    stream = graph_stream(query, n_edges)
    rows = []
    for label, grouping in (("no grouping", False), ("grouping", True)):
        sampler = make_rsjoin(query, GRAPH_SAMPLE_SIZE, grouping=grouping)
        result = run_with_timeout(label, sampler, stream)
        rows.append(
            {
                "configuration": label,
                "propagations": sampler.propagations,
                "seconds": result.elapsed_seconds,
                "sample": sampler.sample_size,
            }
        )
    return rows


def test_star4_no_grouping(benchmark):
    query = graph.star_query(4)
    stream = graph_stream(query, GRAPH_EDGES_SMALL)
    benchmark.pedantic(
        lambda: run_with_timeout("plain", make_rsjoin(query, GRAPH_SAMPLE_SIZE), stream),
        rounds=1,
        iterations=1,
    )


def test_star4_grouping(benchmark):
    query = graph.star_query(4)
    stream = graph_stream(query, GRAPH_EDGES_SMALL)
    benchmark.pedantic(
        lambda: run_with_timeout(
            "grouped", make_rsjoin(query, GRAPH_SAMPLE_SIZE, grouping=True), stream
        ),
        rounds=1,
        iterations=1,
    )


def main() -> None:
    print(format_table(ablation_rows(), title="Ablation — grouping on star-4"))


if __name__ == "__main__":
    main()
