"""Figure 10: running time versus TPC-DS scale factor (QZ).

Paper setup: QZ at scale factors 1, 3, 10 and 30 (226 MB to 6.6 GB of input);
SJoin is omitted because it cannot finish SF 1 within 4 hours.  RSJoin's
running time grows linearly with the scale factor.

Reproduction: a geometric sweep of (much smaller) scale factors for the
synthetic generator; the reproduced shape is the near-linear growth of
RSJoin_opt's time with the input size.
"""

from __future__ import annotations


from harness import format_series, run_with_timeout
from _common import RELATIONAL_SAMPLE_SIZE, make_rsjoin, tpcds_workload

SCALE_FACTORS = (0.05, 0.1, 0.2, 0.4)


def figure10_series(scales=SCALE_FACTORS, k: int = RELATIONAL_SAMPLE_SIZE):
    times = []
    tuples = []
    for scale in scales:
        query, stream = tpcds_workload("QZ", scale=scale)
        result = run_with_timeout(
            "RSJoin_opt",
            make_rsjoin(query, k, foreign_key=True, grouping=True),
            stream,
        )
        times.append(result.elapsed_seconds)
        tuples.append(len(stream))
    return list(scales), {"RSJoin_opt_seconds": times, "input_tuples": tuples}


def test_qz_scale_small(benchmark):
    query, stream = tpcds_workload("QZ", scale=0.05)
    benchmark.pedantic(
        lambda: run_with_timeout(
            "RSJoin_opt",
            make_rsjoin(query, RELATIONAL_SAMPLE_SIZE, foreign_key=True, grouping=True),
            stream,
        ),
        rounds=1,
        iterations=1,
    )


def test_qz_scale_medium(benchmark):
    query, stream = tpcds_workload("QZ", scale=0.2)
    benchmark.pedantic(
        lambda: run_with_timeout(
            "RSJoin_opt",
            make_rsjoin(query, RELATIONAL_SAMPLE_SIZE, foreign_key=True, grouping=True),
            stream,
        ),
        rounds=1,
        iterations=1,
    )


def main() -> None:
    scales, series = figure10_series()
    print(
        format_series(
            series, scales, x_label="scale_factor",
            title="Figure 10 — scalability of QZ with the scale factor",
        )
    )


if __name__ == "__main__":
    main()
