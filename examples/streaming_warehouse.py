"""Maintaining a join synopsis for a streaming data warehouse.

The motivating scenario of the paper's relational experiments (and of
Zhao et al.'s "join synopsis maintenance"): fact tuples stream into a
warehouse whose analytical queries are joins over several dimension tables.
Instead of recomputing those joins, we keep a uniform reservoir over the join
results — a *join synopsis* — and answer approximate analytics straight from
it.

The example runs the paper's QZ join over a synthetic TPC-DS-like feed with
both Section 4.4 optimisations enabled (foreign-key combination + grouping).
The warehouse feed arrives in *micro-batches* — exactly the shape real
ingestion pipelines produce — so the synopsis is maintained through the
batched ingestion fast path (:class:`repro.BatchIngestor`): the sample is
uniform at every chunk boundary and ingestion is several times faster than
tuple-at-a-time processing.  The synopsis is then used to estimate a
group-by aggregate, compared with the exact answer computed by the
symmetric-hash-join oracle.

The second half partitions the same pipeline: a
:class:`repro.ShardedIngestor` hash-partitions the feed across independent
synopsis replicas (one per shard) and recombines them with
``merged_sample`` — an *exactly* uniform sample of the global join, good
for the same analytics.

The third section feeds the *same* click stream to two consumers in one
pass: a freshness-tuned dashboard reservoir and a cyclic-pattern analytics
sampler.  No special ingestor is needed — each chunk of one
``chunk_stream`` pass is handed to every sampler through
:func:`repro.core.backend.chunk_apply`, so each reservoir is bit-identical
to what a standalone run under its own seed would have produced.

The fourth section lets the feed *take things back*: a fraction of the
fact tuples is later retracted — late corrections, erasure requests —
and the synopsis is maintained through a
:class:`repro.TurnstileReservoirJoin` instead, staying exactly uniform
over the join results that survive.  A
:class:`repro.WindowedSampler` then narrows the same turnstile feed to a
sliding window ("the last N stream items"), where expiry is just
age-triggered retraction.

The final section makes the pipeline *durable*: the ingestor checkpoints
every few chunks (``BatchIngestor.save``), the process "crashes", and
``BatchIngestor.restore`` resumes in its place — finishing with a reservoir
bit-identical to a run that never crashed.

Run it with:  python examples/streaming_warehouse.py
"""

from __future__ import annotations

import os
import random
import tempfile
from collections import Counter

from repro import (
    BatchIngestor,
    CyclicReservoirJoin,
    JoinQuery,
    ReservoirJoin,
    ShardedIngestor,
    StreamTuple,
    SymmetricHashJoinSampler,
)
from repro.core.backend import chunk_apply
from repro.relational.stream import chunk_stream
from repro.workloads import tpcds

#: Micro-batch size of the simulated warehouse feed.  Analytics consumers
#: read the synopsis between chunks, where uniformity is guaranteed.
CHUNK_SIZE = 512


def category_shares(results) -> Counter:
    """Share of join results per item category (the group-by we estimate)."""
    counts = Counter(result["category_id"] for result in results)
    total = sum(counts.values()) or 1
    return Counter({key: value / total for key, value in counts.items()})


def main() -> None:
    rng = random.Random(11)
    data = tpcds.generate(scale_factor=0.2, rng=rng)
    query, stream = tpcds.qz_workload(data, rng)
    print(f"query {query.name}: {len(query.relations)} relations, "
          f"{len(stream)} stream tuples (dimensions pre-loaded, facts streamed)")

    # The production sampler: RSJoin with both optimisations (RSJoin_opt),
    # fed through the batched ingestion seam in micro-batches.
    synopsis = ReservoirJoin(
        query, k=500, rng=random.Random(1), foreign_key=True, grouping=True
    )
    ingestor = BatchIngestor(synopsis, chunk_size=CHUNK_SIZE)
    ingestor.ingest(stream)

    # The exact oracle (materialises every delta result — only viable at
    # this demo scale; that is exactly why the synopsis exists).
    oracle = SymmetricHashJoinSampler(query, k=1, rng=random.Random(2))
    for item in stream:
        oracle.insert(item.relation, item.row)

    stats = ingestor.statistics()
    print(f"\nexact join size so far:            {oracle.total_join_size}")
    print(f"chunks ingested (size {CHUNK_SIZE}):         {stats['batches_ingested']}")
    print(f"synopsis size (k):                  {stats['sample_size']}")
    print(f"simulated result-stream length:     {stats['simulated_stream_length']}")
    print(f"positions examined by the sampler:  {stats['items_examined']}")
    print(f"index propagation steps:            {stats['propagations']}")

    # Approximate analytics from the synopsis: share of join results per
    # item category, versus the exact distribution.
    from repro.relational import Database, count_results, join_results

    database = Database(query)
    for item in stream:
        database.insert(item.relation, item.row)
    exact = category_shares(join_results(query, database))
    estimated = category_shares(synopsis.sample)

    print("\ncategory share of join results (exact vs estimated from the synopsis):")
    for category, share in exact.most_common(5):
        print(f"  category {category}: exact {share:6.1%}   estimated {estimated[category]:6.1%}")

    worst = max(abs(exact[c] - estimated[c]) for c in exact)
    print(f"\nlargest absolute estimation error across categories: {worst:.1%}")

    # ------------------------------------------------------------------ #
    # Sharded: the same synopsis, partitioned across replicas
    # ------------------------------------------------------------------ #
    sharded = ShardedIngestor(
        query, k=500, num_shards=4, chunk_size=CHUNK_SIZE, rng=random.Random(3)
    )
    sharded.ingest(stream)
    shard_stats = sharded.statistics()
    merged = sharded.merged_sample()
    sharded_shares = category_shares(merged)
    worst_sharded = max(abs(exact[c] - sharded_shares[c]) for c in exact)
    print(f"\nsharded synopsis ({shard_stats['num_shards']} shards, partitioned "
          f"on {shard_stats['partition_attr']!r}):")
    print(f"  per-shard stream tuples:          {shard_stats['shard_tuples']}")
    shard_counts = [
        count_results(sampler.query, sampler.index.database)
        for sampler in sharded.samplers
    ]
    print(f"  per-shard join results (exact):   {shard_counts}")
    print(f"  broadcast deliveries:             {shard_stats['broadcast_deliveries']}")
    print(f"  merged sample size:               {len(merged)}")
    print(f"  largest sharded estimation error: {worst_sharded:.1%}")

    # ------------------------------------------------------------------ #
    # One stream pass, several consumers
    # ------------------------------------------------------------------ #
    # The same click feed, two consumers: the dashboard wants a small,
    # frequently-read reservoir over the chain join, and the analytics team
    # samples a *cyclic* pattern — sessions whose session/item/day loop
    # closes.  One pass cuts the feed into chunks and hands each chunk to
    # both samplers; each stays bit-identical to a standalone run under its
    # own seed.
    chain = JoinQuery.from_spec(
        "clicks", {"R1": ["session", "item"], "R2": ["item", "day"], "R3": ["day", "price"]}
    )
    cyclic_clicks = JoinQuery.from_spec(
        "click-cycle",
        {"R1": ["session", "item"], "R2": ["item", "day"], "R3": ["day", "session"]},
    )
    fan_rng = random.Random(13)
    clicks = []
    for i in range(1_500):
        relation = ("R1", "R2", "R3")[i % 3]
        row = {
            "R1": (fan_rng.randrange(256), fan_rng.randrange(32)),
            "R2": (fan_rng.randrange(32), fan_rng.randrange(16)),
            "R3": (fan_rng.randrange(16), fan_rng.randrange(256)),
        }[relation]
        clicks.append(StreamTuple(relation, row))

    consumers = {
        "dashboard": ReservoirJoin(chain, k=50, rng=random.Random(21)),
        "analytics": CyclicReservoirJoin(cyclic_clicks, k=200, rng=random.Random(22)),
    }
    applies = [chunk_apply(sampler)[0] for sampler in consumers.values()]
    passes = 0
    for chunk in chunk_stream(clicks, CHUNK_SIZE):
        for apply in applies:
            apply(chunk)
        passes += 1
    print(f"\none pass over the click feed ({len(consumers)} consumers, "
          f"{passes} chunks cut once):")
    for name, sampler in consumers.items():
        print(f"  {name:>10}: sample size {len(sampler.sample)}")

    # The guarantee, demonstrated: the dashboard sampler equals a standalone
    # batched run under the same seed, bit for bit.
    standalone = ReservoirJoin(chain, k=50, rng=random.Random(21))
    BatchIngestor(standalone, chunk_size=CHUNK_SIZE).ingest(clicks)
    identical = consumers["dashboard"].sample == standalone.sample
    print(f"  dashboard == standalone rerun:     {identical}")

    # ------------------------------------------------------------------ #
    # Deletions: the feed retracts facts, the synopsis follows
    # ------------------------------------------------------------------ #
    # Corrections and erasure requests mean a warehouse feed is rarely
    # append-only for long.  Derive a turnstile version of the same fact
    # feed — ~20% of the inserts are later retracted, some retractions
    # arriving *before* their insert (tombstones) — and maintain the
    # synopsis through the deletion-capable sampler.  The estimate is now
    # computed over exactly the facts that survive.
    from repro import TurnstileReservoirJoin, WindowedSampler, surviving_rows, turnstile_stream

    corrected = turnstile_stream(
        stream, random.Random(17), delete_fraction=0.2, tombstone_fraction=0.1
    )
    turnstile_synopsis = TurnstileReservoirJoin(query, k=500, rng=random.Random(18))
    BatchIngestor(turnstile_synopsis, chunk_size=CHUNK_SIZE).ingest(corrected)
    turnstile_stats = turnstile_synopsis.statistics()

    surviving_db = Database(query)
    for relation, rows in surviving_rows(corrected).items():
        for row in rows:
            surviving_db.insert(relation, row)
    exact_surviving = category_shares(join_results(query, surviving_db))
    estimated_surviving = category_shares(turnstile_synopsis.sample)
    worst_surviving = max(
        abs(exact_surviving[c] - estimated_surviving[c]) for c in exact_surviving
    )
    print(f"\nturnstile feed ({len(corrected)} items, "
          f"{turnstile_stats['deletes_applied']} deletes applied, "
          f"{turnstile_stats['annihilations']} tombstone annihilations):")
    print(f"  reservoir evictions / refills:     "
          f"{turnstile_stats['evictions']} / {turnstile_stats['refills']}")
    surviving = count_results(turnstile_synopsis.query, turnstile_synopsis.index.database)
    print(f"  surviving join results (exact):    {surviving}")
    print(f"  largest estimation error over the surviving join: {worst_surviving:.1%}")

    # Sliding window over the same feed: only the most recent stream items
    # count.  Expiry at chunk boundaries is ordinary retraction, so the
    # sample stays exactly uniform over the join *inside the window*.
    # Window width matters on a dimensions-then-facts feed: too narrow and
    # the dimension rows every join needs expire out from under the facts.
    windowed_synopsis = WindowedSampler(
        query, k=200, window=(7 * len(corrected)) // 10, rng=random.Random(19)
    )
    BatchIngestor(windowed_synopsis, chunk_size=CHUNK_SIZE).ingest(corrected)
    windowed_stats = windowed_synopsis.statistics()
    print(f"  windowed twin (last {windowed_stats['window']} items): "
          f"{windowed_stats['rows_in_window']} rows live, "
          f"{windowed_stats['expirations']} expired, "
          f"sample size {len(windowed_synopsis.sample)}")

    # ------------------------------------------------------------------ #
    # Durability: interval checkpointing and crash recovery
    # ------------------------------------------------------------------ #
    # A warehouse feed has no end, but the process ingesting it does —
    # deploys, rescheduling, crashes.  Checkpoint at chunk boundaries (the
    # uniformity points) every CHECKPOINT_EVERY chunks; after a crash,
    # restore() resumes in a fresh process with the same reservoir, the same
    # RNG stream and the same counters, so the result is bit-identical to a
    # run that never crashed.
    checkpoint_path = os.path.join(tempfile.mkdtemp(), "warehouse.ckpt")
    durable_chunk = 128  # finer micro-batches: more boundaries to save at
    chunks = list(chunk_stream(stream, durable_chunk))
    CHECKPOINT_EVERY = max(1, len(chunks) // 8)

    durable = BatchIngestor(
        ReservoirJoin(query, k=500, rng=random.Random(31), foreign_key=True),
        chunk_size=durable_chunk,
    )
    crash_at = len(chunks) * 2 // 3
    checkpoints_written = 0
    for position, chunk in enumerate(chunks[:crash_at]):
        durable.ingest_batch(chunk)
        if (position + 1) % CHECKPOINT_EVERY == 0:
            durable.save(checkpoint_path)
            checkpoints_written += 1
    del durable  # the crash: the in-memory ingestor is gone

    recovered = BatchIngestor.restore(checkpoint_path)
    resume_from = recovered.batches_ingested  # chunks already in the checkpoint
    for chunk in chunks[resume_from:]:
        recovered.ingest_batch(chunk)

    reference = BatchIngestor(
        ReservoirJoin(query, k=500, rng=random.Random(31), foreign_key=True),
        chunk_size=durable_chunk,
    ).ingest(stream)

    print(f"\ninterval checkpointing (every {CHECKPOINT_EVERY} chunks, "
          f"{checkpoints_written} checkpoints, crash after chunk {crash_at}):")
    print(f"  checkpoint size on disk:           "
          f"{os.path.getsize(checkpoint_path):,} bytes")
    print(f"  chunks replayed after restore:     {len(chunks) - resume_from}")
    bit_identical = (
        recovered.sampler.sample == reference.sampler.sample
        and recovered.sampler.statistics() == reference.sampler.statistics()
    )
    print(f"  recovered == uninterrupted run:    {bit_identical}")


if __name__ == "__main__":
    main()
