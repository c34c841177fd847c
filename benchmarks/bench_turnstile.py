"""Microbenchmark: the cost of retractions and sliding windows.

Turnstile streams pay for three things insert-only streams never touch:
``c̃nt`` decrement propagation through the dynamic index, reservoir
eviction + order-statistic refill when sampled results die, and (for the
windowed sampler) the per-boundary expiry scan.  This benchmark measures
that tax honestly on a two-relation join: the same insert workload is
ingested once append-only (``ReservoirJoin``, the reference throughput),
once with 30% of the inserts later retracted
(``TurnstileReservoirJoin``), and once through a count-based sliding window
(``WindowedSampler``).  The cost of one retraction, ``per_delete_us`` (the
turnstile wall minus the insert-only wall, over the deletes applied), is
reported at the base stream size and at ten times it: a flat figure means a
delete's cost does not grow with the stream.

Before any timing, the turnstile run's stored relation state is asserted
equal to the ``surviving_rows`` reference replay — a retraction path that
drifted from set semantics would abort the benchmark rather than report a
throughput.  Emits ``BENCH_turnstile.json``; per the bench-box convention
the insert-only/turnstile ratio is reported, never gated.

Run with:  python benchmarks/bench_turnstile.py
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List

from repro.core.reservoir_join import ReservoirJoin
from repro.core.turnstile import TurnstileReservoirJoin, WindowedSampler
from repro.ingest.batch import BatchIngestor
from repro.relational.query import JoinQuery
from repro.relational.stream import (
    StreamDelete,
    StreamTuple,
    surviving_rows,
    turnstile_stream,
)

from harness import timed

#: CI smoke knob: ``REPRO_BENCH_SCALE`` < 1 shrinks the streams (and the
#: boundary-sensitive chunk/window knobs with them) proportionally; see
#: ``docs/CONFIG.md``.  Ratios at tiny scales are noise and never gated.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
N_INSERTS = max(600, int(30_000 * SCALE))
SAMPLE_SIZE = 500
DOMAIN = max(40, int(2_000 * SCALE))
CHUNK_SIZE = max(64, int(1_024 * SCALE))
DELETE_FRACTION = 0.3
TOMBSTONE_FRACTION = 0.1
#: Repeats per mode; the *minimum* is reported (least-noise estimator).
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
SEED = 2024
#: Stream sizes ``per_delete_us`` is reported at.
PER_DELETE_SIZES = (N_INSERTS, 10 * N_INSERTS)


def two_table_query() -> JoinQuery:
    return JoinQuery.from_spec("two", {"R": ["a", "b"], "S": ["b", "c"]})


def make_streams(n: int = N_INSERTS, seed: int = SEED):
    """The insert workload and its turnstile derivative (same inserts)."""
    rng = random.Random(seed)
    inserts = []
    for ts in range(1, n + 1):
        if rng.random() < 0.5:
            row = (rng.randrange(DOMAIN), rng.randrange(64))
            inserts.append(StreamTuple("R", row, ts))
        else:
            row = (rng.randrange(64), rng.randrange(DOMAIN))
            inserts.append(StreamTuple("S", row, ts))
    stream = turnstile_stream(
        inserts, random.Random(seed + 1),
        delete_fraction=DELETE_FRACTION,
        tombstone_fraction=TOMBSTONE_FRACTION,
    )
    return inserts, stream


def assert_surviving_state(query: JoinQuery, stream) -> None:
    """Set-semantics sanity gate: run once, compare against the replay."""
    sampler = TurnstileReservoirJoin(query, SAMPLE_SIZE, rng=random.Random(1))
    BatchIngestor(sampler, chunk_size=CHUNK_SIZE).ingest(stream)
    reference = surviving_rows(stream)
    for schema in query.relations:
        stored = set(sampler.index.database[schema.name])
        expected = reference.get(schema.name, set())
        assert stored == expected, (
            f"turnstile state diverged from the surviving-rows replay "
            f"on {schema.name}: {len(stored)} vs {len(expected)} rows"
        )


def run_insert_only(query: JoinQuery, inserts) -> None:
    sampler = ReservoirJoin(query, SAMPLE_SIZE, rng=random.Random(1))
    BatchIngestor(sampler, chunk_size=CHUNK_SIZE).ingest(inserts)


def run_turnstile(
    query: JoinQuery, stream, chunk_size: int = CHUNK_SIZE
) -> TurnstileReservoirJoin:
    sampler = TurnstileReservoirJoin(query, SAMPLE_SIZE, rng=random.Random(1))
    BatchIngestor(sampler, chunk_size=chunk_size).ingest(stream)
    return sampler


def run_windowed(
    query: JoinQuery, stream, window: int, chunk_size: int = CHUNK_SIZE
) -> WindowedSampler:
    sampler = WindowedSampler(
        query, SAMPLE_SIZE, window=window, rng=random.Random(1), mode="count"
    )
    BatchIngestor(sampler, chunk_size=chunk_size).ingest(stream)
    return sampler


def per_delete(query: JoinQuery, n: int) -> Dict[str, float]:
    """Wall seconds of the insert-only and turnstile passes over an
    ``n``-insert stream, and the microseconds each applied delete adds."""
    inserts, stream = make_streams(n)
    insert_only = min(timed(lambda: run_insert_only(query, inserts)) for _ in range(REPEATS))
    turnstile = min(timed(lambda: run_turnstile(query, stream)) for _ in range(REPEATS))
    deletes_applied = run_turnstile(query, stream).statistics()["deletes_applied"]
    return {
        "n_inserts": n,
        "deletes_applied": deletes_applied,
        "insert_only_seconds": insert_only,
        "turnstile_seconds": turnstile,
        "per_delete_us": round((turnstile - insert_only) / deletes_applied * 1e6, 2),
    }


# --------------------------------------------------------------------- #
# pytest-benchmark targets (reduced scale: 2,000 inserts, 128-item chunks)
# --------------------------------------------------------------------- #
SMOKE_INSERTS = 2_000
SMOKE_CHUNK = 128


def test_turnstile_batched(benchmark):
    query = two_table_query()
    _, stream = make_streams(SMOKE_INSERTS)
    sampler = benchmark.pedantic(
        lambda: run_turnstile(query, stream, SMOKE_CHUNK), rounds=1, iterations=1
    )
    assert sampler.statistics()["evictions"] > 0
    sampler.check_invariants()


def test_windowed_batched(benchmark):
    query = two_table_query()
    _, stream = make_streams(SMOKE_INSERTS)
    sampler = benchmark.pedantic(
        lambda: run_windowed(query, stream, len(stream) // 4, SMOKE_CHUNK),
        rounds=1,
        iterations=1,
    )
    assert sampler.statistics()["expirations"] > 0
    sampler.check_invariants()


def main() -> None:
    query = two_table_query()
    inserts, stream = make_streams()
    deletes = sum(1 for item in stream if isinstance(item, StreamDelete))

    # Correctness gate before any timing.
    assert_surviving_state(query, stream)

    window = max(2 * CHUNK_SIZE, len(stream) // 4)

    per_delete_rows = [per_delete(query, n) for n in PER_DELETE_SIZES]
    insert_only = per_delete_rows[0]["insert_only_seconds"]
    turnstile = per_delete_rows[0]["turnstile_seconds"]
    windowed = min(timed(lambda: run_windowed(query, stream, window)) for _ in range(REPEATS))

    turnstile_stats = run_turnstile(query, stream).statistics()
    windowed_stats = run_windowed(query, stream, window).statistics()

    n = len(stream)
    modes: List[Dict] = [
        {
            "mode": "insert_only_batched",
            "chunk_size": CHUNK_SIZE,
            "n_items": len(inserts),
            "seconds": round(insert_only, 4),
            "tuples_per_second": round(len(inserts) / insert_only),
        },
        {
            "mode": "turnstile_batched",
            "chunk_size": CHUNK_SIZE,
            "n_items": n,
            "seconds": round(turnstile, 4),
            "tuples_per_second": round(n / turnstile),
            "retraction_tax": round(turnstile / insert_only, 2),
            "deletes_applied": turnstile_stats["deletes_applied"],
            "annihilations": turnstile_stats["annihilations"],
            "evictions": turnstile_stats["evictions"],
            "refills": turnstile_stats["refills"],
        },
        {
            "mode": "windowed_batched",
            "chunk_size": CHUNK_SIZE,
            "window": window,
            "n_items": n,
            "seconds": round(windowed, 4),
            "tuples_per_second": round(n / windowed),
            "expirations": windowed_stats["expirations"],
            "rows_in_window": windowed_stats["rows_in_window"],
        },
    ]
    report = {
        "benchmark": "turnstile",
        "query": "two",
        "n_tuples": n,
        "n_inserts": len(inserts),
        "n_retractions": deletes,
        "retraction_fraction": round(deletes / n, 3),
        "sample_size": SAMPLE_SIZE,
        "repeats": REPEATS,
        "surviving_check": True,  # asserted above, before any timing
        "modes": modes,
        "per_delete_us": per_delete_rows,
        "methodology": (
            "min of repeats, GC paused; retraction tax reported "
            "informationally, never gated (bench-box convention)"
        ),
    }
    with open("BENCH_turnstile.json", "w") as handle:
        json.dump(report, handle, indent=2)

    print(f"turnstile benchmark — two-table join, {len(inserts)} inserts, "
          f"{deletes} retractions ({report['retraction_fraction']:.0%} of stream), "
          f"k={SAMPLE_SIZE}")
    for row in modes:
        extra = ""
        if "retraction_tax" in row:
            extra = (f"  tax {row['retraction_tax']:.2f}x  "
                     f"({row['evictions']} evictions, {row['refills']} refills)")
        elif "expirations" in row:
            extra = f"  ({row['expirations']} expirations, window={row['window']})"
        print(f"  {row['mode']:>20}: {row['seconds']:7.3f}s  "
              f"{row['tuples_per_second']:>9,} items/s{extra}")
    for row in per_delete_rows:
        print(f"  per delete at {row['n_inserts']:>7,} inserts: "
              f"{row['per_delete_us']:9.2f} us  ({row['deletes_applied']} deletes)")
    print("surviving-state check: held (asserted before timing)")
    print("wrote BENCH_turnstile.json")


if __name__ == "__main__":
    main()
