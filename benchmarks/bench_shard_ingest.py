"""Microbenchmark: sharded vs unsharded batched ingestion + cyclic bulk path.

Acceptance benchmark for the sharded ingestion subsystem and the cyclic bulk
path, on the same chain-3 workload as ``bench_batch_ingest.py``:

* **Sharded** — a 4-shard :class:`repro.ShardedIngestor` against the
  unsharded :class:`repro.BatchIngestor` fast path.  Sharding runs every
  shard in process, so its wall is *slower* than unsharded (broadcast
  relations are ingested once per shard): the figure prices the sharded
  merge's routing and replication, it is not a speedup.  No target is set;
  the ratio is informational.
* **Cyclic bulk** — ``CyclicReservoirJoin.insert_batch`` (grouped bag-index
  updates + whole-batch skips) against the per-tuple cyclic path on the same
  stream.  Criterion: ≥ 2×.

Emits ``BENCH_shard_ingest.json`` in the current working directory.

Run with:  python benchmarks/bench_shard_ingest.py
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List

from repro.core.reservoir_join import ReservoirJoin
from repro.cyclic.cyclic_join import CyclicReservoirJoin
from repro.ingest.batch import BatchIngestor
from repro.ingest.shard import ShardedIngestor
from repro.relational.join import count_results
from repro.relational.query import JoinQuery
from repro.relational.stream import StreamTuple

from harness import timed

#: CI smoke knob (see ``bench_batch_ingest.py``): shrink everything
#: proportionally so ``make bench-smoke`` can assert execution + valid JSON.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
N_TUPLES = max(600, int(50_000 * SCALE))
N_TUPLES_CYCLIC = max(400, int(20_000 * SCALE))
SAMPLE_SIZE = 1_000
DOMAIN = 4_000
CHUNK_SIZE = max(128, int(8_192 * SCALE))
NUM_SHARDS = 4
#: Repeats per mode; the *minimum* is reported (least-noise estimate).
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
SEED = 2024
TARGET_SPEEDUP_CYCLIC = 2.0


def chain3_query() -> JoinQuery:
    return JoinQuery.from_spec(
        "chain-3", {"R1": ["x1", "x2"], "R2": ["x2", "x3"], "R3": ["x3", "x4"]}
    )


def make_stream(n: int, seed: int = SEED) -> List[StreamTuple]:
    rng = random.Random(seed)
    relations = ["R1", "R2", "R3"]
    return [
        StreamTuple(relations[i % 3], (rng.randrange(DOMAIN), rng.randrange(DOMAIN)))
        for i in range(n)
    ]


# --------------------------------------------------------------------- #
# Sharded vs unsharded batched
# --------------------------------------------------------------------- #
def run_unsharded(query: JoinQuery, stream: List[StreamTuple]) -> float:
    def run():
        sampler = ReservoirJoin(query, SAMPLE_SIZE, rng=random.Random(1))
        BatchIngestor(sampler, chunk_size=CHUNK_SIZE).ingest(stream)

    return timed(run)


def make_sharded(query: JoinQuery) -> ShardedIngestor:
    return ShardedIngestor(
        query,
        k=SAMPLE_SIZE,
        num_shards=NUM_SHARDS,
        chunk_size=CHUNK_SIZE,
        rng=random.Random(1),
    )


def run_sharded_serial(query: JoinQuery, stream: List[StreamTuple]) -> Dict:
    """One single-thread sharded run: every shard ingests in process."""
    ingestor = make_sharded(query)
    seconds = timed(lambda: ingestor.ingest(stream))
    return {"seconds": seconds, "shard_loads": ingestor.shard_loads()}


# --------------------------------------------------------------------- #
# Cyclic per-tuple vs bulk
# --------------------------------------------------------------------- #
def run_cyclic_per_tuple(query: JoinQuery, stream: List[StreamTuple]) -> float:
    def run():
        sampler = CyclicReservoirJoin(query, SAMPLE_SIZE, rng=random.Random(1))
        for item in stream:
            sampler.insert(item.relation, item.row)

    return timed(run)


def run_cyclic_bulk(query: JoinQuery, stream: List[StreamTuple]) -> float:
    def run():
        sampler = CyclicReservoirJoin(query, SAMPLE_SIZE, rng=random.Random(1))
        BatchIngestor(sampler, chunk_size=CHUNK_SIZE).ingest(stream)

    return timed(run)


def bench() -> Dict:
    query = chain3_query()
    stream = make_stream(N_TUPLES)

    unsharded = min(run_unsharded(query, stream) for _ in range(REPEATS))
    # Sanity outside the timed region: the merge must deliver a full-size
    # uniform sample at the final chunk boundary.
    probe = make_sharded(query)
    probe.ingest(stream)
    total = sum(
        count_results(sampler.query, sampler.index.database)
        for sampler in probe.samplers
    )
    assert len(probe.merged_sample()) == min(SAMPLE_SIZE, total)
    best_serial = min(
        (run_sharded_serial(query, stream) for _ in range(REPEATS)),
        key=lambda r: r["seconds"],
    )
    serial_total = best_serial["seconds"]
    modes = [
        {
            "mode": "batched_unsharded",
            "seconds": round(unsharded, 4),
            "tuples_per_second": round(N_TUPLES / unsharded),
            "speedup": 1.0,
        },
        {
            "mode": "sharded_serial_total",
            "seconds": round(serial_total, 4),
            "tuples_per_second": round(N_TUPLES / serial_total),
            "speedup": round(unsharded / serial_total, 2),
            "shard_loads": best_serial["shard_loads"],
        },
    ]

    cyclic_stream = make_stream(N_TUPLES_CYCLIC, seed=SEED + 1)
    cyclic_per_tuple = min(run_cyclic_per_tuple(query, cyclic_stream) for _ in range(REPEATS))
    cyclic_bulk = min(run_cyclic_bulk(query, cyclic_stream) for _ in range(REPEATS))
    cyclic_speedup = cyclic_per_tuple / cyclic_bulk

    return {
        "benchmark": "shard_ingest",
        "query": "chain-3",
        "n_tuples": N_TUPLES,
        "sample_size": SAMPLE_SIZE,
        "domain": DOMAIN,
        "chunk_size": CHUNK_SIZE,
        "num_shards": NUM_SHARDS,
        "partition_attr": make_sharded(query).partition_attr,
        "repeats": REPEATS,
        "modes": modes,
        "methodology": (
            "Every figure is a measured wall clock on this machine "
            f"(cpu_count={os.cpu_count()}), the minimum over repeats with GC "
            "paused. sharded_serial_total is the sharded wall, every shard "
            "ingesting in process; its speedup is the unsharded batched wall "
            "over it and falls below 1 because broadcast relations are "
            "ingested once per shard."
        ),
        "cyclic": {
            "n_tuples": N_TUPLES_CYCLIC,
            "per_tuple_seconds": round(cyclic_per_tuple, 4),
            "bulk_seconds": round(cyclic_bulk, 4),
            "speedup": round(cyclic_speedup, 2),
            "target_speedup": TARGET_SPEEDUP_CYCLIC,
            "meets_target": cyclic_speedup >= TARGET_SPEEDUP_CYCLIC,
        },
    }


def main() -> None:
    report = bench()
    with open("BENCH_shard_ingest.json", "w") as handle:
        json.dump(report, handle, indent=2)
    print(
        f"sharded ingestion benchmark — chain-3, N={report['n_tuples']}, "
        f"k={report['sample_size']}, shards={report['num_shards']} "
        f"(partition on {report['partition_attr']!r})"
    )
    for row in report["modes"]:
        print(
            f"  {row['mode']:>22}: {row['seconds']:7.3f}s  "
            f"{row['tuples_per_second']:>9,} tuples/s  {row['speedup']:.2f}x"
        )
    cyclic = report["cyclic"]
    print(
        f"cyclic bulk path: per-tuple {cyclic['per_tuple_seconds']:.3f}s vs "
        f"bulk {cyclic['bulk_seconds']:.3f}s -> {cyclic['speedup']:.2f}x "
        f"(target ≥ {cyclic['target_speedup']}x, "
        f"{'met' if cyclic['meets_target'] else 'NOT met'})"
    )
    print("wrote BENCH_shard_ingest.json")


if __name__ == "__main__":
    main()
