"""Figure 9 (table): effect of the optimisations on QZ over TPC-DS.

Paper setup: QZ at scale factor 10 with k = 1,000,000.  The table reports the
number of executions of the propagation loop (lines 9-11 of Algorithm 7) and
the total running time for three configurations: no optimisation,
foreign-key combination, and foreign-key + grouping.  Each optimisation cuts
both numbers, with roughly a 10x end-to-end speed-up once both are on.

Reproduction: the same three configurations on the synthetic TPC-DS-like
workload; the propagation count is the library's ``propagations`` statistic.
"""

from __future__ import annotations


from harness import format_table, run_with_timeout
from _common import RELATIONAL_SAMPLE_SIZE, TPCDS_SCALE, make_rsjoin, tpcds_workload

CONFIGURATIONS = (
    ("none", dict(foreign_key=False, grouping=False)),
    ("foreign-key", dict(foreign_key=True, grouping=False)),
    ("foreign-key + grouping", dict(foreign_key=True, grouping=True)),
)


def figure9_rows(scale: float = TPCDS_SCALE, k: int = RELATIONAL_SAMPLE_SIZE):
    query, stream = tpcds_workload("QZ", scale=scale)
    rows = []
    for label, options in CONFIGURATIONS:
        sampler = make_rsjoin(query, k, **options)
        result = run_with_timeout(label, sampler, stream)
        rows.append(
            {
                "optimisations": label,
                "propagations": sampler.propagations,
                "seconds": result.elapsed_seconds,
                "sample": sampler.sample_size,
            }
        )
    return rows


def test_qz_no_optimisation(benchmark):
    query, stream = tpcds_workload("QZ")
    benchmark.pedantic(
        lambda: run_with_timeout("none", make_rsjoin(query, RELATIONAL_SAMPLE_SIZE), stream),
        rounds=1,
        iterations=1,
    )


def test_qz_foreign_key(benchmark):
    query, stream = tpcds_workload("QZ")
    benchmark.pedantic(
        lambda: run_with_timeout(
            "fk", make_rsjoin(query, RELATIONAL_SAMPLE_SIZE, foreign_key=True), stream
        ),
        rounds=1,
        iterations=1,
    )


def test_qz_foreign_key_grouping(benchmark):
    query, stream = tpcds_workload("QZ")
    benchmark.pedantic(
        lambda: run_with_timeout(
            "fk+grouping",
            make_rsjoin(query, RELATIONAL_SAMPLE_SIZE, foreign_key=True, grouping=True),
            stream,
        ),
        rounds=1,
        iterations=1,
    )


def main() -> None:
    print(format_table(figure9_rows(), title="Figure 9 — optimisations on QZ"))


if __name__ == "__main__":
    main()
