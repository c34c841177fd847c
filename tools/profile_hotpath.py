#!/usr/bin/env python
"""Profile the ingestion hot path: where does a chunk's time actually go?

Every perf PR against the ingestion seam starts from the same measurement
(``make profile``), so optimisations chase profiles, not hunches.  The
harness drives the two representative insert-only ingestion shapes over a
chain-3 stream of the repository benchmark's ``insert-chain3`` shape
(``bench/run.py``: 20k tuples, domain 400, chunks of 100, k = 1000):

* **batched** — one ``BatchIngestor`` over a ``ReservoirJoin`` (the inner
  loops of ``index/tree_index.py`` and ``core/batch_reservoir.py``);
* **sharded** — a serial 4-shard ``ShardedIngestor`` (adds the hash-routing
  loop of ``ingest/shard.py`` on top);
* **per-row** — ``DynamicJoinIndex(maintain_root=True)`` alone, with no
  sampler: ``insert`` of every distinct row of the same stream one row at a
  time, then ``delete`` of each in stream order (the one-row runs of
  ``TreeIndex._update``), reported as µs/row for each half;

the checkpoint I/O the served loop pays at every save:

* **checkpoint** — ``BatchIngestor.save`` of the batched shape's final
  state (the pickled index and reservoir, written through the checkpoint
  codec), reported with the file's bytes;

and the turnstile path in the benchmark's ``turnstile-2way`` shape:

* **turnstile** — one ``BatchIngestor`` over a ``TurnstileReservoirJoin``
  on ``R(a, b) ⋈ S(b, c)`` (``b`` from 64 values): 2,000 distinct inserts,
  30% of them later retracted and a tenth of those retractions arriving
  before their insert, in chunks of 13 with k = 100 (the per-key fold,
  delete runs and refills of ``core/turnstile.py``).  ``--n`` and
  ``--chunk-size`` do not apply to it.

For each shape it reports a wall-clock figure in milliseconds (GC paused,
best of ``--repeats``; the per-row shape also its µs/row, each half best of
``--repeats``) and the top ``cProfile`` rows by cumulative time, restricted
to this repository's own frames so library noise never buries the hot loop.

Knobs: ``--n`` stream length, ``--chunk-size``, ``--shards``, ``--top``,
``--repeats``; ``REPRO_PROFILE_N`` overrides ``--n`` for Makefile use
(``make profile``).

Usage:  PYTHONPATH=src python tools/profile_hotpath.py [--n 20000]
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import random
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro.core.reservoir_join import ReservoirJoin  # noqa: E402
from repro.core.turnstile import TurnstileReservoirJoin  # noqa: E402
from repro.index.dynamic_index import DynamicJoinIndex  # noqa: E402
from repro.ingest.batch import BatchIngestor  # noqa: E402
from repro.ingest.shard import ShardedIngestor  # noqa: E402
from repro.relational.query import JoinQuery  # noqa: E402
from repro.relational.stream import StreamDelete, StreamTuple  # noqa: E402

from harness import timed  # noqa: E402

SEED = 2024
DOMAIN = 400
SAMPLE_SIZE = 1_000


def chain3_query() -> JoinQuery:
    return JoinQuery.from_spec(
        "chain-3", {"R1": ["x1", "x2"], "R2": ["x2", "x3"], "R3": ["x3", "x4"]}
    )


def make_stream(n: int, seed: int = SEED):
    rng = random.Random(seed)
    relations = ["R1", "R2", "R3"]
    return [
        StreamTuple(relations[i % 3], (rng.randrange(DOMAIN), rng.randrange(DOMAIN)))
        for i in range(n)
    ]


def two_way_query() -> JoinQuery:
    return JoinQuery.from_spec("two-way", {"R": ["a", "b"], "S": ["b", "c"]})


def make_turnstile_stream(n: int = 2_000, seed: int = SEED):
    """``n`` distinct inserts, 30% retracted later (a tenth of those early)."""
    rng = random.Random(seed)
    inserts, seen = [], set()
    while len(inserts) < n:
        relation = "R" if len(inserts) % 2 else "S"
        value, key = rng.randrange(64), rng.randrange(2_000)
        row = (key, value) if relation == "R" else (value, key)
        if (relation, row) not in seen:
            seen.add((relation, row))
            inserts.append(StreamTuple(relation, row))
    retracted = rng.sample(range(n), round(0.3 * n))
    early = set(retracted[: len(retracted) // 10])
    events = [(position + 0.5, item) for position, item in enumerate(inserts)]
    for position in retracted:
        item = inserts[position]
        when = rng.uniform(0, position + 0.5) if position in early else rng.uniform(position + 0.5, n)
        events.append((when, StreamDelete(item.relation, item.row)))
    events.sort(key=lambda event: event[0])
    return [item for _, item in events]


def run_turnstile(query, stream, chunk_size: int) -> None:
    sampler = TurnstileReservoirJoin(query, 100, rng=random.Random(3))
    BatchIngestor(sampler, chunk_size=chunk_size).ingest(stream)


def run_batched(query, stream, chunk_size: int) -> BatchIngestor:
    sampler = ReservoirJoin(query, SAMPLE_SIZE, rng=random.Random(1))
    return BatchIngestor(sampler, chunk_size=chunk_size).ingest(stream)


def run_sharded(query, stream, chunk_size: int, shards: int) -> None:
    ShardedIngestor(
        query, SAMPLE_SIZE, num_shards=shards, chunk_size=chunk_size,
        rng=random.Random(2),
    ).ingest(stream)


def run_per_row(query, rows) -> DynamicJoinIndex:
    index = DynamicJoinIndex(query, maintain_root=True)
    for relation, row in rows:
        index.insert(relation, row)
    for relation, row in rows:
        index.delete(relation, row)
    return index


def per_row_us(query, rows, repeats: int):
    """Best-of-``repeats`` µs/row of per-row ``insert``, then of ``delete``."""
    inserts, deletes = [], []
    for _ in range(repeats):
        index = DynamicJoinIndex(query, maintain_root=True)
        inserts.append(timed(lambda: [index.insert(relation, row) for relation, row in rows]))
        deletes.append(timed(lambda: [index.delete(relation, row) for relation, row in rows]))
        assert index.size == 0
    return 1e6 * min(inserts) / len(rows), 1e6 * min(deletes) / len(rows)


def profile_shape(label: str, run, top: int, repeats: int) -> None:
    wall = min(timed(run) for _ in range(repeats))
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer).sort_stats("cumulative")
    # Restrict to this repository's frames: library/builtin noise (regex,
    # importlib, ...) would otherwise bury the actual hot loops.
    stats.print_stats(r"repro[/\\]", top)
    print(f"== {label}: wall {1e3 * wall:.2f} ms (best of {repeats}, GC paused) ==")
    for line in buffer.getvalue().splitlines():
        line = line.rstrip()
        if line:
            print(line)
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--n", type=int,
        default=int(os.environ.get("REPRO_PROFILE_N", "20000")),
        help="stream length (default 20000, or REPRO_PROFILE_N)",
    )
    parser.add_argument("--chunk-size", type=int, default=100)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--top", type=int, default=18,
                        help="profile rows to print per shape")
    parser.add_argument("--repeats", type=int, default=3,
                        help="wall-clock repeats (minimum reported)")
    args = parser.parse_args()

    query = chain3_query()
    stream = make_stream(args.n)
    print(
        f"ingestion hot-path profile — chain-3, N={args.n}, "
        f"chunk_size={args.chunk_size}, k={SAMPLE_SIZE}"
    )
    print()
    profile_shape(
        "batched",
        lambda: run_batched(query, stream, args.chunk_size),
        args.top, args.repeats,
    )
    profile_shape(
        f"sharded (serial, {args.shards} shards)",
        lambda: run_sharded(query, stream, args.chunk_size, args.shards),
        args.top, args.repeats,
    )
    ingestor = run_batched(query, stream, args.chunk_size)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "profile.ckpt")
        ingestor.save(path)
        profile_shape(
            f"checkpoint (BatchIngestor.save of the batched final state, "
            f"{os.path.getsize(path):,} bytes)",
            lambda: ingestor.save(path),
            args.top, args.repeats,
        )
    rows = list(dict.fromkeys((item.relation, item.row) for item in stream))
    insert_us, delete_us = per_row_us(query, rows, args.repeats)
    profile_shape(
        f"per-row ({len(rows)} distinct rows, maintain_root=True; insert "
        f"{insert_us:.2f} µs/row, delete {delete_us:.2f} µs/row, best of {args.repeats})",
        lambda: run_per_row(query, rows),
        args.top, args.repeats,
    )
    two_way, turnstile = two_way_query(), make_turnstile_stream()
    profile_shape(
        f"turnstile (two-way, {len(turnstile)} items, chunk_size=13, k=100)",
        lambda: run_turnstile(two_way, turnstile, 13),
        args.top, args.repeats,
    )


if __name__ == "__main__":
    main()
