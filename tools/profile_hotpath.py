#!/usr/bin/env python
"""Profile the ingestion hot path: where does a chunk's time actually go?

Every perf PR against the ingestion seam starts from the same measurement
(``make profile``), so optimisations chase profiles, not hunches.  The
harness drives the two representative ingestion shapes over a chain-3 stream
of the repository benchmark's ``insert-chain3`` shape (``bench/run.py``:
20k tuples, domain 400, chunks of 100, k = 1000):

* **batched** — one ``BatchIngestor`` over a ``ReservoirJoin`` (the inner
  loops of ``index/tree_index.py`` and ``core/batch_reservoir.py``);
* **sharded** — a serial 4-shard ``ShardedIngestor`` (adds the hash-routing
  loop of ``ingest/shard.py`` on top).

For each shape it reports a wall-clock figure (GC paused, best of
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
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro.core.reservoir_join import ReservoirJoin  # noqa: E402
from repro.ingest.batch import BatchIngestor  # noqa: E402
from repro.ingest.shard import ShardedIngestor  # noqa: E402
from repro.relational.query import JoinQuery  # noqa: E402
from repro.relational.stream import StreamTuple  # noqa: E402

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


def run_batched(query, stream, chunk_size: int) -> None:
    sampler = ReservoirJoin(query, SAMPLE_SIZE, rng=random.Random(1))
    BatchIngestor(sampler, chunk_size=chunk_size).ingest(stream)


def run_sharded(query, stream, chunk_size: int, shards: int) -> None:
    ShardedIngestor(
        query, SAMPLE_SIZE, num_shards=shards, chunk_size=chunk_size,
        rng=random.Random(2),
    ).ingest(stream)


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
    print(f"== {label}: wall {wall:.3f}s (best of {repeats}, GC paused) ==")
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


if __name__ == "__main__":
    main()
