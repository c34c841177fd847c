"""Microbenchmark: batched vs per-tuple ingestion throughput.

Acceptance benchmark for the batched ingestion subsystem: a 3-relation chain
join over an N=50k stream, ingested once tuple by tuple (the seed's
``insert`` loop) and once through ``BatchIngestor`` at several chunk sizes.
Emits ``BENCH_batch_ingest.json`` (in the current working directory) with the
measured times and speedups; the headline criterion is ≥2× throughput for
the batched mode at its best chunk size.

Its ``cyclic`` block times the cyclic bulk path on the same query:
``CyclicReservoirJoin.insert_batch`` (grouped bag-index updates and
whole-batch skips) against the per-tuple cyclic path on one N=20k stream.
Criterion: ≥ 2×.

Run with:  python benchmarks/bench_batch_ingest.py
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List

from repro.core.reservoir_join import ReservoirJoin
from repro.cyclic.cyclic_join import CyclicReservoirJoin
from repro.ingest.batch import BatchIngestor
from repro.relational.query import JoinQuery
from repro.relational.stream import StreamTuple

from harness import timed

#: CI smoke knob: ``REPRO_BENCH_SCALE`` < 1 shrinks the streams (and the
#: chunk-size knobs that must shrink with them) proportionally.  Used by
#: ``make bench-smoke`` to assert the benchmark *executes and emits valid
#: JSON* in seconds; speedup figures at tiny scales are noise and are never
#: gated on (see the bench-box convention in ``docs/ARCHITECTURE.md``).
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
N_TUPLES = max(600, int(50_000 * SCALE))
N_TUPLES_CYCLIC = max(400, int(20_000 * SCALE))
SAMPLE_SIZE = 1_000
DOMAIN = 4_000
CHUNK_SIZES = [max(64, int(1_024 * SCALE)), max(128, int(8_192 * SCALE))]
#: Repeats per mode; the *minimum* is reported, as recommended for
#: microbenchmarks (the min is the least-noise estimate of the true cost —
#: see the ``timeit`` docs; medians still wobble under multi-second
#: scheduler noise on shared machines).
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "5"))
SEED = 2024
TARGET_SPEEDUP = 2.0
TARGET_SPEEDUP_CYCLIC = 2.0


def chain3_query() -> JoinQuery:
    return JoinQuery.from_spec(
        "chain-3", {"R1": ["x1", "x2"], "R2": ["x2", "x3"], "R3": ["x3", "x4"]}
    )


def make_stream(n: int = N_TUPLES, seed: int = SEED) -> List[StreamTuple]:
    rng = random.Random(seed)
    relations = ["R1", "R2", "R3"]
    return [
        StreamTuple(relations[i % 3], (rng.randrange(DOMAIN), rng.randrange(DOMAIN)))
        for i in range(n)
    ]


def run_per_tuple(
    query: JoinQuery, stream: List[StreamTuple], sampler_cls=ReservoirJoin
) -> float:
    def run():
        sampler = sampler_cls(query, SAMPLE_SIZE, rng=random.Random(1))
        for item in stream:
            sampler.insert(item.relation, item.row)

    return timed(run)


def run_batched(
    query: JoinQuery, stream: List[StreamTuple], chunk_size: int, sampler_cls=ReservoirJoin
) -> float:
    def run():
        sampler = sampler_cls(query, SAMPLE_SIZE, rng=random.Random(1))
        BatchIngestor(sampler, chunk_size=chunk_size).ingest(stream)

    return timed(run)


def bench_cyclic(query: JoinQuery) -> Dict:
    stream = make_stream(N_TUPLES_CYCLIC, seed=SEED + 1)
    chunk_size = CHUNK_SIZES[-1]
    per_tuple = min(
        run_per_tuple(query, stream, CyclicReservoirJoin) for _ in range(REPEATS)
    )
    bulk = min(
        run_batched(query, stream, chunk_size, CyclicReservoirJoin)
        for _ in range(REPEATS)
    )
    speedup = per_tuple / bulk
    return {
        "n_tuples": N_TUPLES_CYCLIC,
        "chunk_size": chunk_size,
        "per_tuple_seconds": round(per_tuple, 4),
        "bulk_seconds": round(bulk, 4),
        "speedup": round(speedup, 2),
        "target_speedup": TARGET_SPEEDUP_CYCLIC,
        "meets_target": speedup >= TARGET_SPEEDUP_CYCLIC,
    }


def bench_rows(n: int = N_TUPLES) -> Dict:
    query = chain3_query()
    stream = make_stream(n)
    per_tuple_times = [run_per_tuple(query, stream) for _ in range(REPEATS)]
    per_tuple = min(per_tuple_times)
    modes = [
        {
            "mode": "per_tuple",
            "chunk_size": 1,
            "seconds": round(per_tuple, 4),
            "tuples_per_second": round(n / per_tuple),
            "speedup": 1.0,
        }
    ]
    best_speedup = 0.0
    for chunk_size in CHUNK_SIZES:
        batched = min(
            run_batched(query, stream, chunk_size) for _ in range(REPEATS)
        )
        speedup = per_tuple / batched
        best_speedup = max(best_speedup, speedup)
        modes.append(
            {
                "mode": "batched",
                "chunk_size": chunk_size,
                "seconds": round(batched, 4),
                "tuples_per_second": round(n / batched),
                "speedup": round(speedup, 2),
            }
        )
    return {
        "benchmark": "batch_ingest",
        "query": "chain-3",
        "n_tuples": n,
        "sample_size": SAMPLE_SIZE,
        "domain": DOMAIN,
        "repeats": REPEATS,
        "modes": modes,
        "best_speedup": round(best_speedup, 2),
        "target_speedup": TARGET_SPEEDUP,
        "meets_target": best_speedup >= TARGET_SPEEDUP,
        "cyclic": bench_cyclic(query),
    }


# --------------------------------------------------------------------- #
# pytest-benchmark targets (reduced scale)
# --------------------------------------------------------------------- #
def test_ingest_per_tuple(benchmark):
    query = chain3_query()
    stream = make_stream(10_000)
    benchmark.pedantic(lambda: run_per_tuple(query, stream), rounds=1, iterations=1)


def test_ingest_batched(benchmark):
    query = chain3_query()
    stream = make_stream(10_000)
    benchmark.pedantic(
        lambda: run_batched(query, stream, CHUNK_SIZES[-1]), rounds=1, iterations=1
    )


def main() -> None:
    report = bench_rows()
    with open("BENCH_batch_ingest.json", "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"batch ingestion benchmark — chain-3, N={report['n_tuples']}, "
          f"k={report['sample_size']}")
    for row in report["modes"]:
        label = (
            "per-tuple" if row["mode"] == "per_tuple" else f"batched/{row['chunk_size']}"
        )
        print(
            f"  {label:>14}: {row['seconds']:7.3f}s  "
            f"{row['tuples_per_second']:>9,} tuples/s  {row['speedup']:.2f}x"
        )
    print(f"best speedup: {report['best_speedup']:.2f}x "
          f"(target ≥ {report['target_speedup']}x, "
          f"{'met' if report['meets_target'] else 'NOT met'})")
    cyclic = report["cyclic"]
    print(
        f"cyclic bulk path (N={cyclic['n_tuples']}): per-tuple "
        f"{cyclic['per_tuple_seconds']:.3f}s vs bulk {cyclic['bulk_seconds']:.3f}s "
        f"-> {cyclic['speedup']:.2f}x (target ≥ {cyclic['target_speedup']}x, "
        f"{'met' if cyclic['meets_target'] else 'NOT met'})"
    )
    print("wrote BENCH_batch_ingest.json")


if __name__ == "__main__":
    main()
