"""repro — a full reproduction of "Reservoir Sampling over Joins" (SIGMOD 2024).

The most commonly used entry points are re-exported at the package root:

* :class:`~repro.core.reservoir_join.ReservoirJoin` — maintain ``k`` uniform
  samples of an acyclic join over a tuple stream (the paper's RSJoin).
* :class:`~repro.ingest.batch.BatchIngestor` — the batched ingestion driver
  (see "Choosing an ingestion mode" below).
* :class:`~repro.index.dynamic_index.DynamicJoinIndex` — the dynamic index of
  Theorem 4.2, including full-join sampling.
* :class:`~repro.relational.query.JoinQuery` /
  :class:`~repro.relational.stream.StreamTuple` — how queries and streams are
  described.

Choosing an ingestion mode
--------------------------
Every sampler supports three interchangeable ways of consuming a stream:

* **Per-tuple** — ``sampler.insert(relation, row)``.  The reservoir is a
  uniform sample without replacement of the join results after *every single
  tuple*.  Use it when samples must be consumable at arbitrary points (e.g.
  per-event monitoring) or when latency per tuple matters more than
  throughput.
* **Batched** — ``BatchIngestor(sampler, chunk_size).ingest(stream)`` (or
  ``sampler.insert_batch(chunk)`` directly).  Tuples are absorbed in chunks:
  bulk index maintenance touches each counter path once per batch and whole
  delta batches are skipped without being materialised.  This holds for the
  cyclic sampler too — ``CyclicReservoirJoin.insert_batch`` bulk-updates the
  GHD bag indexes once per touched bag per batch.  The uniformity guarantee
  holds at every *chunk boundary*; between boundaries the sample lags by
  less than one chunk.  Use it for heavy streams where throughput is the
  goal — it is several times faster end to end.
* **Several samplers, one pass** — no ingestor needed: for each chunk of
  one ``chunk_stream(stream, chunk_size)`` pass, call
  ``chunk_apply(backend)[0](chunk)`` (:mod:`repro.core.backend`) on every
  backend.  Each backend sees exactly the chunks a standalone run would, so
  under its own seed its reservoir is bit-identical to that run.

Any of these modes can read a blocking source ahead:
``for chunk in prefetched(source): ingestor.ingest_batch(chunk)``
(:func:`~repro.relational.stream.prefetched`) iterates the source on one
daemon thread into a bounded queue, so the wait for the next chunk (network,
pagination) overlaps the ingestion of the current one.  Ingestion stays on
the caller's thread, so every chunk is still an exact chunk boundary.

Retractions and windows
-----------------------
``TurnstileReservoirJoin(query, k)`` is the sampler for streams that
*retract* tuples (``sampler.delete(relation, row)``, or ``StreamDelete``
items mixed into any batch).  A deletion removes the row from the dynamic
index (``c̃nt`` decrement propagation), evicts join results that died with
it from the reservoir, refills uniformly from the survivors and re-anchors
the skip state — so the reservoir stays exactly uniform over the
*surviving* join results at every boundary.  A delete arriving before its
insert plants a tombstone that annihilates the later insert.  Its subclass
``WindowedSampler(query, k, window)`` adds sliding-window sampling: rows
older than ``window`` (a count of stream items, or a timestamp horizon with
``mode="timestamp"``) are retracted automatically at chunk boundaries.  Both
conform to the same backend seam, so they take all three ways of consuming
a stream and compose with checkpoint/restore and serving.  Use them for
feeds with corrections/expirations; the insert-only samplers stay strictly
faster on append-only streams.

Every sampler, in any of the three modes, can be *served*: ``SampleServer`` (:mod:`repro.serve`)
wraps a live ingestor and multiplexes concurrent readers against the single
writer through snapshot-isolated, exactly-uniform epoch cuts taken at chunk
boundaries — with per-subscriber predicate views and a bounded-staleness
policy (``snapshot(max_staleness)``); reads are safe from any number of
threads.

Long-running streams are durable: ``BatchIngestor`` exposes
``save(path)`` / ``restore(path)`` — a versioned, checksummed
checkpoint (reservoirs, stored relation state, exact RNG state) from which a
fresh process resumes *bit-identically* to an uninterrupted run (see :mod:`repro.ingest.checkpoint`).

All modes draw from exactly the same join-result distribution;
``chunk_size=1`` makes the batched mode degenerate to per-tuple semantics.

See ``README.md`` for the decision table, ``docs/ARCHITECTURE.md`` for the
uniformity arguments, ``examples/quickstart.py`` for a five-minute tour and
``examples/streaming_warehouse.py`` for the batched/multi-sampler APIs in
context.
"""

from .relational.query import JoinQuery
from .relational.schema import KeyConstraint, RelationSchema
from .relational.stream import (
    StreamDelete,
    StreamTuple,
    prefetched,
    surviving_rows,
    turnstile_stream,
)
from .core.reservoir import ReservoirSampler
from .core.predicate_backend import PredicateStreamSampler
from .core.batch_reservoir import BatchedPredicateReservoir
from .core.reservoir_join import ReservoirJoin
from .core.turnstile import TurnstileReservoirJoin, WindowedSampler
from .core.backend import SamplerBackend
from .ingest.batch import BatchIngestor
from .ingest.checkpoint import (
    CheckpointCodec,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointVersionError,
    PeriodicCheckpointer,
)
from .serve import EpochSnapshot, SampleServer
from .index.dynamic_index import DynamicJoinIndex
from .index.two_table import TwoTableIndex
from .index.foreign_key import ForeignKeyCombiner
from .cyclic.cyclic_join import CyclicReservoirJoin
from .cyclic.ghd import GHD
from .baselines.sjoin import SJoin
from .baselines.symmetric import SymmetricHashJoinSampler

__version__ = "1.0.0"

__all__ = [
    "JoinQuery",
    "KeyConstraint",
    "RelationSchema",
    "StreamTuple",
    "StreamDelete",
    "turnstile_stream",
    "prefetched",
    "surviving_rows",
    "ReservoirSampler",
    "PredicateStreamSampler",
    "BatchedPredicateReservoir",
    "ReservoirJoin",
    "TurnstileReservoirJoin",
    "WindowedSampler",
    "SamplerBackend",
    "BatchIngestor",
    "CheckpointCodec",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "CheckpointMismatchError",
    "PeriodicCheckpointer",
    "EpochSnapshot",
    "SampleServer",
    "DynamicJoinIndex",
    "TwoTableIndex",
    "ForeignKeyCombiner",
    "CyclicReservoirJoin",
    "GHD",
    "SJoin",
    "SymmetricHashJoinSampler",
    "__version__",
]
