"""Ingestion: the seam between stream transport and samplers.

Per-tuple ingestion (``sampler.insert(relation, row)``) pays full Python
dispatch — index lookups, projection-position resolution, reservoir
bookkeeping — for every arriving tuple.  The ingestion subsystem amortises
that cost in two layers:

1. **The protocol** (:mod:`repro.core.backend`): every sampler conforms to
   the :class:`~repro.core.backend.SamplerBackend` interface; capability
   probing (:func:`~repro.core.backend.chunk_apply`) picks each backend's
   chunk method once — ``ingest_batch``, else ``insert_batch`` — so no
   ingestor carries its own ``getattr`` boilerplate.
2. **The ingestors**, each one chunk loop that applies a chunk, counts it
   once and then runs its chunk-boundary hooks:

   * :class:`BatchIngestor` — one sampler, no routing; the uniformity
     guarantee holds at every chunk boundary (``chunk_size=1`` degenerates
     to exact per-tuple semantics).
   * :class:`ShardedIngestor` — one sampler per shard behind a
     hash-partitioning router (relations lacking the partition attribute
     are broadcast), with the exactly-uniform ``merged_sample`` recombining
     the shard reservoirs by regenerated keys, never by counts (see
     :mod:`repro.ingest.shard`).

Feeding one stream pass to several samplers needs no ingestor of its own:
call ``chunk_apply(backend)[0](chunk)`` for each backend on every chunk of
one :func:`~repro.relational.stream.chunk_stream` pass.  Each backend then
sees exactly the chunks a standalone run would, so its guarantee is its
own, unchanged.

A blocking source overlaps with ingestion without an ingestor of its own
either: :func:`~repro.relational.stream.prefetched` reads it ahead on one
thread while the caller's thread calls ``ingest_batch`` per chunk, so every
chunk stays an exact chunk boundary.

Anything that can hand chunks of
:class:`~repro.relational.stream.StreamTuple` to one of these participates
in the fast path; every mode preserves the same guarantee — the reservoir
is an exactly uniform sample without replacement of the join results of the
stream prefix at every chunk boundary.

Turnstile streams ride the same seam: chunks may mix
:class:`~repro.relational.stream.StreamDelete` retractions between the
inserts when the hosted sampler is deletion-capable
(:class:`~repro.core.turnstile.TurnstileReservoirJoin`,
:class:`~repro.core.turnstile.WindowedSampler`).  ``chunk_apply`` probes
``ingest_batch`` first, so the turnstile samplers segment mixed chunks
themselves; the sharded router hash-routes each retraction to the shard
owning the row (broadcast relations broadcast their deletes).  The
boundary guarantee becomes: exactly uniform over the *surviving* join
results of the prefix.

Chunk boundaries are also the durability points: the ingestors checkpoint
(``save(path)``) and restore (``Ingestor.restore``) through the versioned
file format of :mod:`repro.ingest.checkpoint`, with bit-identical
resumption — the restored run consumes exactly the random
stream an uninterrupted run would have.
"""

from .batch import DEFAULT_CHUNK_SIZE, BatchIngestor
from .checkpoint import (
    CheckpointCodec,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointVersionError,
    PeriodicCheckpointer,
)
from .shard import ShardedIngestor, partition_attribute, stable_shard_hash

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "BatchIngestor",
    "ShardedIngestor",
    "CheckpointCodec",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "CheckpointMismatchError",
    "PeriodicCheckpointer",
    "partition_attribute",
    "stable_shard_hash",
]
