#!/usr/bin/env python
"""Profile the ingestion hot path: where does a chunk's time actually go?

Every perf PR against the ingestion seam starts from the same measurement
(``make profile``), so optimisations chase profiles, not hunches.  The
harness drives the representative insert-only ingestion shapes over the
repository benchmark's ``insert-chain3`` stream (``bench/run.py``'s
``chain_stream`` at its default seed 1: 20k tuples, domain 400, chunks of
100, k = 1000):

* **batched** — one ``BatchIngestor`` over a ``ReservoirJoin`` (the inner
  loops of ``index/dynamic_index.py``, ``index/tree_index.py`` and
  ``core/batch_reservoir.py``);
* **per-tuple** — ``ReservoirJoin.insert`` of every tuple of the same
  stream, beside a one-item ``insert_batch`` per tuple, each reported as
  µs/tuple, best of ``--repeats``; the profile is of ``insert``.  Both
  reach the reservoir through the same fold, so the gap between the two is
  the one-item chunk's fixed cost;
* **per-row** — ``DynamicJoinIndex(maintain_root=True)`` alone, with no
  sampler: ``insert`` of every distinct row of the same stream one row at a
  time, then ``delete`` of each in stream order (the one-row runs of
  ``DynamicJoinIndex._update``), reported as µs/row for each half;

the memory the batched shape's final state holds:

* **state** — ``deep_sizeof`` of its ``BatchIngestor`` (the measure behind
  the benchmark's ``state_mb``), split into the relations' rows, their
  row → position maps, their relation indexes, the index's bucket
  families, the reservoir and the rest.  The parts share one ``seen`` set
  and are walked in that order, so an object reachable from several parts
  (a row tuple is held by its relation, its indexes, the families and
  perhaps the reservoir) counts in the first, and the parts sum to the
  whole;

the checkpoint I/O the served loop pays at every save:

* **checkpoint** — ``BatchIngestor.save`` of the batched shape's final
  state (the pickled index and reservoir, written through the checkpoint
  codec), reported with the file's bytes;

the served loop of the benchmark's ``serve-chain3`` workload:

* **serve** — its ``SampleServer`` stack, built and fed as ``bench/run.py``
  does at seed 1: 200 chunks of 10, five ``k = 100`` reads at staleness 15
  after every chunk, a save every 100 chunks.  Reported as the p50 of the
  reads and the mean of the saves, each operation's time its minimum over
  ``--repeats`` loops;

and the turnstile path in the benchmark's ``turnstile-2way`` shape:

* **turnstile** — one ``BatchIngestor`` over a ``TurnstileReservoirJoin``
  on ``R(a, b) ⋈ S(b, c)`` (``b`` from 64 values): 2,000 distinct inserts,
  30% of them later retracted and a tenth of those retractions arriving
  before their insert, in chunks of 13 with k = 100 (the per-key fold,
  delete runs and refills of ``core/turnstile.py``).

``--n`` applies to neither the serve nor the turnstile shape, and
``--chunk-size`` only to the batched and checkpoint shapes.

For each shape it reports a wall-clock figure in milliseconds (GC paused,
best of ``--repeats``; the per-tuple shape also its µs/tuple and the per-row
shape its µs/row, each best of ``--repeats``) and the top ``cProfile`` rows by cumulative time, restricted
to this repository's own frames so library noise never buries the hot loop.

Knobs: ``--n`` stream length, ``--chunk-size``, ``--top``, ``--repeats``; ``REPRO_PROFILE_N`` overrides ``--n`` for Makefile use
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
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "bench"))

from repro.core.reservoir_join import ReservoirJoin  # noqa: E402
from repro.core.turnstile import TurnstileReservoirJoin  # noqa: E402
from repro.index.dynamic_index import DynamicJoinIndex  # noqa: E402
from repro.ingest.batch import BatchIngestor  # noqa: E402
from repro.relational.query import JoinQuery  # noqa: E402
from repro.relational.stream import StreamDelete, StreamTuple  # noqa: E402
from repro.stats.memory import deep_sizeof, megabytes, sampler_memory_bytes  # noqa: E402

from harness import percentile, timed  # noqa: E402
from run import WORKLOADS, chain_stream, stack_seed  # noqa: E402

SEED = 2024
#: ``bench/run.py``'s default ``--seed``.
BENCH_SEED = 1
DOMAIN = 400
SAMPLE_SIZE = 1_000
SERVE = WORKLOADS["serve-chain3"]


def chain3_query() -> JoinQuery:
    return JoinQuery.from_spec(
        "chain-3", {"R1": ["x1", "x2"], "R2": ["x2", "x3"], "R3": ["x3", "x4"]}
    )


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


def run_serve(inputs: dict) -> dict:
    """One served loop of the ``serve-chain3`` shape; returns the seconds of
    each read and each save, in loop order."""
    server = SERVE.build(inputs, random.Random(stack_seed(BENCH_SEED)))
    times = {"read": [], "save": []}
    chunks = inputs["chunks"]
    clock = time.perf_counter
    for epoch, chunk in enumerate(chunks, 1):
        server.ingest_batch(chunk)
        for _ in range(SERVE.reads_per_boundary):
            start = clock()
            server.sample(SERVE.read_k, max_staleness=SERVE.staleness)
            times["read"].append(clock() - start)
        if epoch % SERVE.save_every == 0 or epoch == len(chunks):
            start = clock()
            server.ingestor.save(inputs["checkpoint"])
            times["save"].append(clock() - start)
    return times


def serve_floors(inputs: dict, repeats: int) -> dict:
    """Each read's and each save's minimum over ``repeats`` GC-paused loops."""
    loops = []
    for _ in range(repeats):
        timed(lambda: loops.append(run_serve(inputs)))
    return {
        operation: [min(times) for times in zip(*(loop[operation] for loop in loops))]
        for operation in ("read", "save")
    }


def run_per_tuple(query, stream, one_item_chunks: bool = False) -> ReservoirJoin:
    sampler = ReservoirJoin(query, SAMPLE_SIZE, rng=random.Random(1))
    for item in stream:
        if one_item_chunks:
            sampler.insert_batch([item])
        else:
            sampler.insert(item.relation, item.row)
    return sampler


def per_tuple_us(query, stream, repeats: int):
    """Best-of-``repeats`` µs/tuple of ``insert``, then of one-item ``insert_batch``."""
    return tuple(
        1e6 * min(timed(lambda: run_per_tuple(query, stream, chunks)) for _ in range(repeats)) / len(stream)
        for chunks in (False, True)
    )


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


def state_parts(ingestor: BatchIngestor) -> list:
    """``(part, bytes)`` of the ingestor's object graph, walked part by part
    with one shared ``seen`` set, so the bytes sum to its ``deep_sizeof``."""
    sampler = ingestor.sampler
    relations = list(sampler.index.database)
    parts = [
        ("rows", [relation.rows for relation in relations]),
        ("row-position maps", [relation._row_positions for relation in relations]),
        ("relation indexes", [relation._indexes for relation in relations]),
        ("families", [sampler.index.families]),
        ("reservoir", [sampler.reservoir]),
        ("rest", [ingestor]),
    ]
    seen: set = set()
    sizes = [(part, sum(deep_sizeof(obj, seen) for obj in objects)) for part, objects in parts]
    assert sum(size for _, size in sizes) == sampler_memory_bytes(ingestor)
    return sizes


def print_state(ingestor: BatchIngestor) -> None:
    parts = state_parts(ingestor)
    total = sum(size for _, size in parts)
    print(f"== state (the batched final state, deep getsizeof): {megabytes(total):.3f} MiB ==")
    for part, size in parts:
        print(f"{part:>18} {megabytes(size):8.3f} MiB {100 * size / total:5.1f}%")
    print()


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
    parser.add_argument("--top", type=int, default=18,
                        help="profile rows to print per shape")
    parser.add_argument("--repeats", type=int, default=3,
                        help="wall-clock repeats (minimum reported)")
    args = parser.parse_args()

    query = chain3_query()
    stream = chain_stream(BENCH_SEED, args.n, DOMAIN)
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
    ingestor = run_batched(query, stream, args.chunk_size)
    print_state(ingestor)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "profile.ckpt")
        ingestor.save(path)
        profile_shape(
            f"checkpoint (BatchIngestor.save of the batched final state, "
            f"{os.path.getsize(path):,} bytes)",
            lambda: ingestor.save(path),
            args.top, args.repeats,
        )
    with tempfile.TemporaryDirectory() as directory:
        inputs = SERVE.generate(BENCH_SEED, 1.0, directory)
        floors = serve_floors(inputs, args.repeats)
        reads, saves = floors["read"], floors["save"]
        profile_shape(
            f"serve (serve-chain3 loop: {len(inputs['chunks'])} chunks of "
            f"{SERVE.chunk_size}, {len(reads)} reads of k={SERVE.read_k}, "
            f"{len(saves)} saves; read {1e6 * percentile(reads, 0.5):.1f} µs p50, "
            f"save {1e3 * sum(saves) / len(saves):.2f} ms, best of {args.repeats})",
            lambda: run_serve(inputs),
            args.top, args.repeats,
        )
    insert_us, chunk_us = per_tuple_us(query, stream, args.repeats)
    profile_shape(
        f"per-tuple (ReservoirJoin.insert {insert_us:.2f} µs/tuple, one-item "
        f"insert_batch {chunk_us:.2f} µs/tuple, best of {args.repeats})",
        lambda: run_per_tuple(query, stream),
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
