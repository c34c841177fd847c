"""Sharded ingestion: hash-partitioned sampler replicas with an exact merge.

:class:`ShardedIngestor` scales the batched ingestion seam horizontally.  A
*partition attribute* is chosen (by default the attribute shared by the most
relations); every arriving chunk is split by a stable hash of that
attribute's value, relations that do not contain the attribute are broadcast
to every shard, and each shard runs its own independent sampler replica over
its share of the stream.  Shards share no mutable state, so the per-chunk
work is embarrassingly parallel — :meth:`ShardedIngestor.start_pool` moves
the live shard replicas into a persistent one-process-per-shard
:class:`~repro.ingest.pool.ShardWorkerPool` (:meth:`ShardedIngestor
.ingest_parallel` is the one-call convenience wrapper), while the serial
:meth:`ShardedIngestor.ingest` keeps the same semantics in-process.  The
pool feeds every worker the exact sub-chunk sequence the serial path
produces and each replica starts from a snapshot of the parent-side state,
so pool-fed shards are *bit-identical* to a serial run under equal seeds —
ingestion, ``merged_sample``, checkpointing and ``statistics`` all keep
working against the live workers.

Correctness (the merge rule)
----------------------------
Every join result binds the partition attribute to a single value, so each
result is *formable in exactly one shard*: the shard owning the hash of that
value holds all of the result's partitioned tuples plus every broadcast
tuple.  The shard-local join result sets therefore partition the global
result set, and each shard's reservoir is — by the per-sampler guarantee — a
uniform sample without replacement of its local set at every chunk boundary.

:func:`merge_shard_samples` (behind :meth:`ShardedIngestor.merged_sample`
and a served epoch cut alike) turns those shard-local reservoirs into one
uniform sample of the *global* join via weighted subsampling:

1. the exact local result count ``n_s`` of every shard comes from
   :func:`exact_result_count`: an ``O(N)`` pass over its index
   (:func:`repro.relational.join.count_results`), or a turnstile shard's
   tracked surviving count;
2. ``k`` distinct virtual positions are drawn uniformly from ``range(sum
   n_s)`` and mapped to shards — this realises the multivariate
   hypergeometric allocation ``(k_1, …, k_S)`` of a uniform ``k``-subset of
   the disjoint union;
3. each shard contributes a uniform ``k_s``-subset of its reservoir.  A
   uniform random subset of a uniform-without-replacement sample is itself a
   uniform-without-replacement sample of the underlying set, so the merged
   probability of any fixed ``k``-subset factorises to ``1 / C(sum n_s, k)``
   — exact uniformity, not an approximation.

The allocation can demand up to ``min(k, n_s)`` items from shard ``s``, so
per-shard reservoir capacity must be at least the merged sample size (the
default replica uses the same ``k``).
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.backend import derive_seed, restore_backend, snapshot_backend
from ..core.reservoir_join import ReservoirJoin
from ..relational.join import count_results
from ..relational.query import JoinQuery
from ..relational.schema import tuple_getter
from ..relational.stream import StreamDelete, StreamTuple, validate_pairs
from .batch import DEFAULT_CHUNK_SIZE, BatchIngestor
from .checkpoint import CODEC, CheckpointMismatchError
from .engine import EngineLane, IngestionEngine
from .pool import ShardWorkerPool, WorkerCrashError  # noqa: F401 (re-export)

#: Default shard count; the tentpole benchmark uses this value.
DEFAULT_NUM_SHARDS = 4


def stable_shard_hash(value: Sequence) -> int:
    """A deterministic hash of a projection tuple, stable across processes
    and consistent with join equality.

    Two requirements, neither met by the obvious candidates alone:

    * **process stability** — ``hash()`` is salted per process for strings,
      which would route the same tuple to different shards in different
      runs, so string/bytes components are digested instead;
    * **equality consistency** — the join indexes compare values with ``==``
      (``1 == 1.0 == True``), so join-equal components of different numeric
      types must land on the same shard.  A ``repr``-based digest would
      split them; for non-string components the built-in ``hash`` is used
      — it is equality-consistent by contract and unsalted for numeric
      types.

    Components must be strings, bytes, ``None`` or hashables whose built-in
    hash is process-stable (numbers, and tuples thereof) — which is what
    relation rows are made of.
    """
    hasher = hashlib.blake2b(digest_size=8)
    for component in value:
        if isinstance(component, str):
            hasher.update(b"s")
            hasher.update(component.encode("utf-8"))
        elif isinstance(component, bytes):
            hasher.update(b"b")
            hasher.update(component)
        elif component is None:  # hash(None) is id-derived before 3.12
            hasher.update(b"n")
        else:
            hasher.update(b"h")
            hasher.update(hash(component).to_bytes(9, "big", signed=True))
    return int.from_bytes(hasher.digest(), "big")


def route_rows(
    pairs: Iterable[Tuple[str, Tuple]],
    getters: Dict[str, Callable],
    num_shards: int,
) -> List[int]:
    """Shard assignments for a chunk: per stream position, the owning shard
    index, or ``-1`` for a broadcast tuple.

    This is *the* routing rule — the chunk splitter behind
    :meth:`ShardedIngestor.partition` (serial and pool wire paths alike)
    resolves shards through this one helper, and
    :meth:`ShardedIngestor.shard_of` applies the same
    :func:`stable_shard_hash` to a single row, so they cannot drift.

    ``pairs`` are ``(relation, row_tuple)`` items; ``getters`` maps the
    relations carrying the partition attribute to their projection getters
    — relations absent from it broadcast.
    """
    assignments: List[int] = []
    for relation, row in pairs:
        getter = getters.get(relation)
        assignments.append(
            -1 if getter is None else stable_shard_hash(getter(row)) % num_shards
        )
    return assignments


def partition_attribute(query: JoinQuery) -> str:
    """The default partition attribute: contained in the most relations.

    Relations not containing the attribute must be broadcast to every shard,
    so maximising coverage minimises replicated work.  Ties break by
    canonical attribute order, keeping the choice deterministic.
    """
    best: Optional[str] = None
    best_cover = -1
    for attr in query.output_attrs():
        cover = len(query.relations_with_attr(attr))
        if cover > best_cover:
            best, best_cover = attr, cover
    assert best is not None  # a query has at least one relation/attribute
    return best


def exact_result_count(sampler) -> int:
    """Exact size of the join result set a sampler's reservoir draws from.

    Works for any sampler built on :class:`~repro.index.dynamic_index
    .DynamicJoinIndex` (``ReservoirJoin`` counts its working query's join;
    ``CyclicReservoirJoin`` counts the bag join, which equals the original
    query's result set).  A :class:`~repro.core.turnstile
    .TurnstileReservoirJoin` that already tracks its surviving count (seeded
    at its first applied delete) answers from that count, with no recount.
    This is the one place a shard's count is computed, in process and in
    the pool workers alike.
    """
    tracked = getattr(sampler, "_population", None)
    if tracked is not None:
        return tracked
    index = getattr(sampler, "index", None)
    if index is None:
        raise TypeError(
            f"{type(sampler).__name__} does not expose a dynamic index; "
            "the sharded merge needs exact local result counts"
        )
    return count_results(index.query, index.database)


@dataclass(frozen=True)
class ShardState:
    """What the merge needs from one shard: reservoir, exact count, capacity."""

    sample: Sequence[dict]
    count: int
    capacity: int


def merge_shard_samples(
    states: Sequence[ShardState], k: int, rng: random.Random
) -> List[dict]:
    """A uniform sample without replacement of the union of the shards'
    disjoint local result sets.

    Draws ``min(k, sum of counts)`` results: a hypergeometric allocation
    over the shards, then a uniform subset of each shard's reservoir (see
    the module docstring for the uniformity argument).  The live
    :meth:`ShardedIngestor.merged_sample` and a served epoch cut both merge
    through here, making the same ``rng.sample`` calls in the same order, so
    equal states and equal RNGs give equal samples.  ``k`` may not exceed
    any overflowing shard's reservoir capacity.
    """
    if k <= 0:
        raise ValueError("merged sample size must be positive")
    total = sum(state.count for state in states)
    k_eff = min(k, total)
    if k_eff == 0:
        return []
    boundaries: List[int] = []
    running = 0
    for state in states:
        if state.count > state.capacity and k_eff > state.capacity:
            raise ValueError(
                f"merged sample of size {k_eff} needs per-shard reservoir "
                f"capacity >= {k_eff}, but a shard holding "
                f"{state.count} results has capacity {state.capacity}"
            )
        if len(state.sample) != min(state.capacity, state.count):
            raise RuntimeError(
                f"shard reservoir holds {len(state.sample)} results but the "
                f"exact local count is {state.count} (capacity "
                f"{state.capacity}); the shard sampler is not uniform over "
                "its local join"
            )
        running += state.count
        boundaries.append(running)
    # A uniform k-subset of range(total) realises the multivariate
    # hypergeometric allocation over the disjoint shard ranges.
    allocation = [0] * len(states)
    for position in rng.sample(range(total), k_eff):
        allocation[bisect_right(boundaries, position)] += 1
    merged: List[dict] = []
    for state, take in zip(states, allocation):
        if take:
            merged.extend(rng.sample(state.sample, take))
    return merged


class ShardedIngestor:
    """Partition a stream across per-shard sampler replicas and merge exactly.

    Parameters
    ----------
    query:
        The join query (acyclic or cyclic — the replica factory decides).
    k:
        Default merged sample size; also the reservoir capacity of the
        default per-shard replicas.
    num_shards:
        How many shards to partition across.
    chunk_size:
        Stream tuples per ingested chunk (uniformity holds at every chunk
        boundary, exactly as for :class:`BatchIngestor`).
    partition_attr:
        Attribute to hash-partition on; defaults to the attribute contained
        in the most relations (:func:`partition_attribute`).  Relations not
        containing it are broadcast to every shard.
    factory:
        Optional ``factory(shard_index, rng) -> sampler`` building one
        replica per shard; defaults to a plain :class:`ReservoirJoin` of
        size ``k``.  Replicas must expose ``index`` (for exact counts) and
        ``sample``; :meth:`ingest_parallel` additionally needs them to be
        snapshot-capable or picklable.
    rng:
        Seedable randomness source; derives one independent RNG per shard
        and drives the merge subsampling.
    """

    def __init__(
        self,
        query: JoinQuery,
        k: int,
        num_shards: int = DEFAULT_NUM_SHARDS,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        partition_attr: Optional[str] = None,
        factory: Optional[Callable[[int, random.Random], object]] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if k <= 0:
            raise ValueError("sample size k must be positive")
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.query = query
        self.k = k
        self.num_shards = num_shards
        self.chunk_size = chunk_size
        self.partition_attr = partition_attr or partition_attribute(query)
        if self.partition_attr not in query.attributes:
            raise ValueError(
                f"partition attribute {self.partition_attr!r} is not an "
                f"attribute of query {query.name!r}"
            )
        self._rng = rng if rng is not None else random.Random()
        self._shard_seeds = [derive_seed(self._rng) for _ in range(num_shards)]
        if factory is None:
            factory = lambda shard, shard_rng: ReservoirJoin(query, k, rng=shard_rng)
        self.samplers = [
            factory(shard, random.Random(self._shard_seeds[shard]))
            for shard in range(num_shards)
        ]
        self.ingestors = [
            BatchIngestor(sampler, chunk_size=chunk_size) for sampler in self.samplers
        ]
        # The shared dispatch loop: one lane per shard, the hash router as
        # the (validating) splitter, and the chunk-boundary counter roll-up
        # as the boundary hook.
        self._engine = IngestionEngine(
            [
                EngineLane(f"shard-{shard}", ingestor.ingest_batch)
                for shard, ingestor in enumerate(self.ingestors)
            ],
            chunk_size=chunk_size,
            router=self._route,
            after_chunk=[self._count_chunk],
        )
        # Projection getters for the relations that carry the partition
        # attribute; every other relation is broadcast.
        self._value_getters: Dict[str, Callable] = {
            schema.name: tuple_getter(schema.positions_of((self.partition_attr,)))
            for schema in query.relations
            if self.partition_attr in schema.attr_set
        }
        self.tuples_ingested = 0
        self.batches_ingested = 0
        self.broadcast_deliveries = 0
        # Per-relation stream tuples routed so far (before broadcast
        # replication) — O(1) observability, surfaced via statistics();
        # dedup inside the shard samplers makes this mix unrecoverable from
        # stored state.
        self.relation_deliveries: Dict[str, int] = {
            name: 0 for name in query.relation_names
        }
        self._counts: Optional[List[int]] = None
        # The persistent worker-pool runtime (start_pool/close_pool): while
        # live, every shard replica resides in its worker process and all
        # per-shard reads go through the pool's chunk-boundary round trips.
        self._pool: Optional[ShardWorkerPool] = None
        # Measured wall clock spent inside ingest_parallel calls (submit
        # through drain) and one-time pool spawn cost.
        self.parallel_wall_seconds = 0.0
        self.pool_startup_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    @property
    def broadcast_relations(self) -> Tuple[str, ...]:
        """Relations replicated to every shard (no partition attribute)."""
        return tuple(
            name for name in self.query.relation_names
            if name not in self._value_getters
        )

    def shard_of(self, relation: str, row: Sequence) -> Optional[int]:
        """The shard owning ``(relation, row)``, or ``None`` for broadcast."""
        if relation not in self._value_getters:
            if relation not in self.query:
                raise KeyError(
                    f"relation {relation!r} is not part of query {self.query.name!r}"
                )
            return None
        value = self._value_getters[relation](tuple(row))
        return stable_shard_hash(value) % self.num_shards

    def partition(self, items: Iterable) -> List[List[Tuple[str, Tuple]]]:
        """Split a batch into per-shard ``(relation, row)`` sub-batches.

        The whole batch is validated first (unknown relation → ``KeyError``,
        wrong arity → ``ValueError``) so a failed call leaves every shard
        untouched.  Broadcast tuples appear in every shard's sub-batch.
        Side-effect-free: inspecting routing never advances any counter —
        the delivery points (the serial and pool paths of
        :meth:`ingest_batch`) use :meth:`_route` instead.
        """
        return self._split(items, count=False)

    def _route(self, items: Iterable) -> List[List[Tuple[str, Tuple]]]:
        """:meth:`partition` plus the ``relation_deliveries`` accounting.

        The internal delivery point: tuples routed through here are being
        *delivered* to shards, so the per-relation observability counters
        advance exactly once per stream tuple.
        """
        return self._split(items, count=True)

    def _split(
        self, items: Iterable, count: bool
    ) -> List[List[Tuple[str, Tuple]]]:
        """Route a chunk in stream order, inserts and retractions alike.

        The whole chunk is validated before any routing state advances.
        Retractions follow *exactly* the routing rule of their inserts: a
        :class:`~repro.relational.stream.StreamDelete` of a partitioned
        relation goes to the one shard that owns (or will own) the row, and
        a retraction of a broadcast relation is broadcast — so every replica
        of the row receives its delete.  Combined with in-order delivery
        within each shard part, each shard's local state stays equal to the
        global turnstile state restricted to that shard, which is what the
        :meth:`merged_sample` partition argument needs.  Retractions pass
        through as ``StreamDelete`` objects, so the per-shard sampler's
        ``ingest_batch`` sees them as retractions.
        """
        pairs: List[Tuple[str, Tuple]] = []
        payloads: List[object] = []
        for item in items:
            if isinstance(item, StreamTuple):
                pair = (item.relation, item.row)
                payloads.append(pair)
            elif isinstance(item, StreamDelete):
                pair = (item.relation, item.row)
                payloads.append(item)
            else:
                relation, row = item
                pair = (relation, tuple(row))
                payloads.append(pair)
            pairs.append(pair)
        validate_pairs(pairs, self.query)
        assignments = route_rows(pairs, self._value_getters, self.num_shards)
        if count:
            deliveries = self.relation_deliveries
            for relation, _ in pairs:
                deliveries[relation] += 1
        parts: List[List[Tuple[str, Tuple]]] = [[] for _ in range(self.num_shards)]
        for payload, assignment in zip(payloads, assignments):
            if assignment < 0:
                for part in parts:
                    part.append(payload)
            else:
                parts[assignment].append(payload)
        return parts

    # ------------------------------------------------------------------ #
    # The worker-pool runtime
    # ------------------------------------------------------------------ #
    @property
    def pool_active(self) -> bool:
        """Whether the shard replicas currently live in pool workers."""
        return self._pool is not None and self._pool.active

    @property
    def pool(self) -> Optional[ShardWorkerPool]:
        """The live worker pool, or ``None`` outside pool mode."""
        return self._pool if self.pool_active else None

    def start_pool(self) -> ShardWorkerPool:
        """Move the live shard replicas into a persistent worker pool.

        Each worker process rebuilds its replica from a
        :func:`~repro.core.backend.snapshot_backend` record of the
        parent-side sampler — the same capability checkpoints use — so a
        pool started mid-stream (or on a checkpoint-restored ingestor)
        continues exactly where the in-process replicas stood, and a pool
        started fresh is bit-identical to a serial run under equal seeds.
        Any snapshot-capable (or picklable) replica qualifies, custom
        factories included: the built replica's *state* crosses the process
        boundary, never the factory callable.

        Shards are stateful, so the pool always runs exactly one worker per
        shard — there is no smaller unit a process could own.  Sub-chunks
        travel pickled over one pipe per worker.  Idempotent while a pool is
        live.
        """
        if self.pool_active:
            return self._pool
        start = time.perf_counter()
        self._pool = ShardWorkerPool(
            [
                {
                    "backend": snapshot_backend(sampler),
                    "engine": ingestor._engine.snapshot_state(),
                    "chunk_size": self.chunk_size,
                }
                for sampler, ingestor in zip(self.samplers, self.ingestors)
            ]
        )
        self.pool_startup_seconds += time.perf_counter() - start
        return self._pool

    def close_pool(self, sync: bool = True) -> None:
        """Stop the pool and return to in-process mode (idempotent).

        With ``sync=True`` (the default) the workers are drained first and
        their final replica states are adopted back into this process —
        serial ingestion and in-process reads of the replicas then continue
        seamlessly from everything the pool ingested.  ``sync=False`` skips
        the adoption (the in-process replicas keep their pre-pool state):
        the cleanup path for a poisoned pool, or for throwaway runs that
        already extracted their merged sample.  A poisoned pool is never
        synced — its shards saw different chunk prefixes.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            if sync and pool.active and not pool.poisoned:
                self._adopt_worker_states(pool.snapshots())
        finally:
            pool.close()

    def _adopt_worker_states(self, records: List[Dict[str, object]]) -> None:
        """Rebuild the in-process replicas from worker snapshot records,
        splicing the fresh per-shard ingestors into the existing engine
        lanes so all accumulated accounting survives the transition."""
        self.samplers = [restore_backend(record["backend"]) for record in records]
        self.ingestors = [
            BatchIngestor(sampler, chunk_size=self.chunk_size)
            for sampler in self.samplers
        ]
        for ingestor, record in zip(self.ingestors, records):
            ingestor._engine.restore_state(record["engine"])
        for lane, ingestor in zip(self._engine.lanes, self.ingestors):
            lane.apply = ingestor.ingest_batch
        self._counts = None

    def _pool_ingest_batch(self, items: List) -> int:
        """One chunk through the pool: route in the parent (all-or-nothing
        validation, same hash router as serial), scatter the sub-chunks,
        advance the same engine counters the serial dispatch would."""
        tuples = len(items)
        if not tuples:
            return 0
        engine = self._engine
        parts = self._route(items)
        self._pool.submit(parts)
        engine.batches_ingested += 1
        engine.tuples_ingested += tuples
        for lane, part in zip(engine.lanes, parts):
            if part:
                lane.chunks_applied += 1
                lane.tuples_applied += len(part)
        # Dispatch the engine's boundary hooks (the first is the counter
        # roll-up registered at construction) so pool-fed chunks fire the
        # same chunk-boundary seam as serial dispatch — epoch cuts and timer
        # checkpoints observe pool ingestion too.
        for hook in engine.after_chunk:
            hook(items, parts)
        return tuples

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def ingest_batch(self, items: Sequence) -> int:
        """Partition one chunk across the shards and ingest every sub-chunk.

        Returns the number of stream tuples pushed (before broadcast
        replication).  With a live worker pool the sub-chunks are scattered
        to the workers (pipelined — the next chunk may be routed while the
        slow shard still chews); otherwise each shard lane ingests
        in-process.  Either way every shard sees the identical sub-chunk
        sequence, and after a drain point (:meth:`merged_sample` drains
        implicitly) all reservoirs are uniform over their local result sets.
        """
        if self.pool_active:
            return self._pool_ingest_batch(list(items))
        return self._engine.ingest_batch(items)

    def _count_chunk(self, items: List, parts: List[List]) -> None:
        """The first chunk-boundary hook: roll up one ingested chunk's
        counters and invalidate the cached exact counts."""
        tuples = len(items)
        self.tuples_ingested += tuples
        self.batches_ingested += 1
        self.broadcast_deliveries += sum(map(len, parts)) - tuples
        self._counts = None

    def ingest(self, stream: Iterable[StreamTuple]) -> "ShardedIngestor":
        """Cut ``stream`` into chunks and ingest them all; returns ``self``."""
        self._engine.ingest(stream, sink=self.ingest_batch)
        return self

    def add_boundary_hook(self, hook):
        """Register ``hook(items, parts)`` to run at every chunk boundary.

        Fires for serial and pool-fed chunks alike (the pool path dispatches
        the same engine hook list), always after the counter roll-up — so a
        hook reading ``tuples_ingested`` sees the chunk already accounted.
        """
        return self._engine.add_boundary_hook(hook)

    def ingest_parallel(self, stream: Iterable[StreamTuple]) -> "ShardedIngestor":
        """Ingest ``stream`` through the persistent worker pool.

        Starts the pool on first use (:meth:`start_pool` — workers inherit
        the live replica state, so the call composes with prior serial
        ingestion) and leaves it running afterwards: further
        :meth:`ingest_batch` / ``ingest_parallel`` calls reuse the same
        workers, :meth:`merged_sample` reads the live shards at a chunk
        boundary, and :meth:`save` checkpoints *through* the workers.
        Workers consume the exact per-shard sub-chunk sequence of the
        serial path from the same replica state, so the result is
        bit-identical to :meth:`ingest` under equal seeds.  The stream is
        consumed incrementally (chunk by chunk), never materialised whole.

        The pool runs one worker per shard.  An empty stream returns
        immediately without spawning anything.  Measured wall clock
        accumulates in ``parallel_wall_seconds``.
        """
        iterator = iter(stream)
        try:
            first = next(iterator)
        except StopIteration:
            return self  # empty stream: no pool spawn, no counters touched
        self.start_pool()
        start = time.perf_counter()
        self._engine.ingest(
            itertools.chain([first], iterator), sink=self.ingest_batch
        )
        self._pool.drain()
        self.parallel_wall_seconds += time.perf_counter() - start
        return self

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict[str, object]:
        """The ingestor's complete resumable state: one sub-checkpoint per
        shard lane plus the engine-level state (lane layout, partition
        attribute, counters) and both randomness sources (the master RNG
        state and the derived per-shard seeds).

        Also the ingestor's own snapshot capability, so a sharded target
        behind an :class:`~repro.ingest.pipeline.AsyncIngestor`
        checkpoints along with its host.
        Requires every shard replica to be snapshot-capable or picklable,
        which the default :class:`ReservoirJoin` replicas are.  With a live
        worker pool the replica states are captured *inside* the workers
        (drained first, so the cut is a chunk boundary) and shipped back —
        a checkpoint taken mid-parallel-run restores exactly like a serial
        one, through the unchanged codec.
        """
        if self.pool_active:
            records = self._pool.snapshots()
            shard_records = [record["backend"] for record in records]
            shard_engines = [record["engine"] for record in records]
        else:
            shard_records = [snapshot_backend(sampler) for sampler in self.samplers]
            shard_engines = [
                ingestor._engine.snapshot_state() for ingestor in self.ingestors
            ]
        return {
            "query": self.query,
            "k": self.k,
            "num_shards": self.num_shards,
            "chunk_size": self.chunk_size,
            "partition_attr": self.partition_attr,
            "shard_seeds": list(self._shard_seeds),
            "rng": self._rng.getstate(),
            "shards": shard_records,
            "shard_engines": shard_engines,
            "engine": self._engine.snapshot_state(),
            "counters": {
                "tuples_ingested": self.tuples_ingested,
                "batches_ingested": self.batches_ingested,
                "broadcast_deliveries": self.broadcast_deliveries,
                "relation_deliveries": dict(self.relation_deliveries),
            },
            "parallel_wall_seconds": self.parallel_wall_seconds,
        }

    def save(self, path: str) -> None:
        """Write a checkpoint of :meth:`snapshot_state` (call at a chunk
        boundary)."""
        CODEC.dump(path, "sharded", self.snapshot_state())

    @classmethod
    def from_snapshot(cls, state: Dict[str, object]) -> "ShardedIngestor":
        """Rebuild an ingestor from a :meth:`snapshot_state` snapshot."""
        replicas = [restore_backend(record) for record in state["shards"]]
        ingestor = cls(
            state["query"],
            state["k"],
            num_shards=state["num_shards"],
            chunk_size=state["chunk_size"],
            partition_attr=state["partition_attr"],
            factory=lambda shard, shard_rng: replicas[shard],
            rng=random.Random(),
        )
        # The factory above returns pre-restored replicas, so the seeds the
        # constructor derived are meaningless: load the recorded seed list
        # and master-RNG state so merged_sample and any future replica
        # derivation continue the checkpointed randomness exactly.
        ingestor._shard_seeds = list(state["shard_seeds"])
        ingestor._rng.setstate(state["rng"])
        ingestor._engine.restore_state(state["engine"])
        for sub, engine_state in zip(ingestor.ingestors, state["shard_engines"]):
            sub._engine.restore_state(engine_state)
        counters = state["counters"]
        ingestor.tuples_ingested = counters["tuples_ingested"]
        ingestor.batches_ingested = counters["batches_ingested"]
        ingestor.broadcast_deliveries = counters["broadcast_deliveries"]
        ingestor.relation_deliveries = dict(counters["relation_deliveries"])
        # Absent in pre-pool checkpoints, which never measured it.
        ingestor.parallel_wall_seconds = state.get("parallel_wall_seconds", 0.0)
        return ingestor

    @classmethod
    def restore(cls, path: str, num_shards: Optional[int] = None) -> "ShardedIngestor":
        """Rebuild a :meth:`save`d ingestor with its exact shard layout.

        ``num_shards`` optionally asserts the expected layout: a checkpoint
        is bound to the shard count it was written under (the hash routing
        and every shard-local reservoir depend on it), so a mismatch raises
        :class:`~repro.ingest.checkpoint.CheckpointMismatchError` — state is
        never silently rehashed into a different layout.
        """
        document = CODEC.load(path, expected_kind="sharded")
        state = document["state"]
        if num_shards is not None and num_shards != state["num_shards"]:
            raise CheckpointMismatchError(
                f"checkpoint was written with {state['num_shards']} shards "
                f"and cannot be restored into {num_shards}; a checkpoint is "
                "bound to its shard layout (restoring would silently rehash "
                "every partition) — restore with the saved layout"
            )
        return cls.from_snapshot(state)

    # ------------------------------------------------------------------ #
    # Merging
    # ------------------------------------------------------------------ #
    def _pool_states(self) -> List[ShardState]:
        """Fetch the merge inputs from the live workers (drains first — the
        read happens at a chunk boundary) and refresh the count cache."""
        states = []
        for shard, (sample, count, capacity, _, _) in enumerate(
            self._pool.shard_states()
        ):
            if count is None:
                raise TypeError(
                    f"shard {shard}'s replica does not expose a dynamic "
                    "index; the sharded merge needs exact local result counts"
                )
            states.append(
                ShardState(
                    sample, count, capacity if capacity is not None else self.k
                )
            )
        self._counts = [state.count for state in states]
        return states

    def shard_states(self) -> List[ShardState]:
        """Every shard's merge inputs (reservoir, exact count, capacity),
        read at the current chunk boundary — from the live workers in pool
        mode, from the in-process replicas otherwise."""
        if self.pool_active:
            return self._pool_states()
        counts = self.shard_counts()
        return [
            ShardState(sampler.sample, counts[shard], getattr(sampler, "k", self.k))
            for shard, sampler in enumerate(self.samplers)
        ]

    def shard_samples(self) -> List[List[dict]]:
        """Every shard's reservoir, in shard order — read from the live
        workers (at a chunk boundary) in pool mode, from the in-process
        replicas otherwise.  The bit-identity probe: a pool-fed run must
        produce exactly these lists under equal seeds and chunking."""
        if self.pool_active:
            return [list(state.sample) for state in self._pool_states()]
        return [list(sampler.sample) for sampler in self.samplers]

    def shard_counts(self) -> List[int]:
        """Exact local join result counts, one per shard (cached)."""
        if self._counts is None:
            if self.pool_active:
                self._pool_states()  # refreshes the cache as a side effect
            else:
                self._counts = [
                    exact_result_count(sampler) for sampler in self.samplers
                ]
        return list(self._counts)

    def total_results(self) -> int:
        """Exact ``|Q(R)|`` of the global join (sum of disjoint shard counts)."""
        return sum(self.shard_counts())

    # ------------------------------------------------------------------ #
    # Load observability
    # ------------------------------------------------------------------ #
    def shard_loads(self) -> List[int]:
        """Stream tuples delivered per shard so far (O(1) observability).

        In pool mode the parent-side engine lanes carry the delivery
        counters (advanced at scatter time — no worker round trip), and
        they agree exactly with what the serial dispatch would count.
        """
        if self.pool_active:
            return [lane.tuples_applied for lane in self._engine.lanes]
        return [ingestor.tuples_ingested for ingestor in self.ingestors]

    def load_imbalance(self) -> float:
        """Hottest shard's load over the mean load (1.0 = perfectly even).

        An O(1) skew signal, safe to poll at every chunk boundary; loads
        count delivered stream tuples (broadcast replicas included), which
        is what the per-shard workers actually pay for.
        """
        loads = self.shard_loads()
        total = sum(loads)
        if total == 0:
            return 1.0
        return max(loads) * self.num_shards / total

    def merged_sample(
        self, k: Optional[int] = None, rng: Optional[random.Random] = None
    ) -> List[dict]:
        """A uniform sample without replacement of the global join results.

        Draws ``min(k, |Q(R)|)`` results by hypergeometric allocation across
        the shard-local reservoirs followed by uniform subsampling within
        each shard (see the module docstring for the uniformity argument).
        Repeated calls draw independent merged samples from the same shard
        state.  ``k`` defaults to the constructor's ``k`` and may not exceed
        any overflowing shard's reservoir capacity.
        """
        return merge_shard_samples(
            self.shard_states(),
            self.k if k is None else k,
            rng if rng is not None else self._rng,
        )

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def statistics(self) -> Dict[str, object]:
        """Ingestion counters and per-shard load — all O(1), safe per chunk.

        Deliberately excludes the exact shard result counts: those cost an
        O(N) count pass per shard when the cache is cold, which would turn
        per-chunk observability polling into quadratic total work.  Call
        :meth:`shard_counts` / :meth:`total_results` explicitly when exact
        figures are worth that price.

        The only timings are measured walls: ``parallel_wall_seconds``
        (submit through drain inside :meth:`ingest_parallel`) and
        ``pool_startup_seconds``.
        """
        stats: Dict[str, object] = {
            "num_shards": self.num_shards,
            "partition_attr": self.partition_attr,
            "chunk_size": self.chunk_size,
            "tuples_ingested": self.tuples_ingested,
            "batches_ingested": self.batches_ingested,
            "broadcast_deliveries": self.broadcast_deliveries,
            "broadcast_relations": list(self.broadcast_relations),
            "shard_tuples": self.shard_loads(),
            "relation_deliveries": dict(self.relation_deliveries),
            "load_imbalance": round(self.load_imbalance(), 4),
            "parallel": self.pool_active,
            "parallel_wall_seconds": round(self.parallel_wall_seconds, 4),
            "pool_startup_seconds": round(self.pool_startup_seconds, 4),
        }
        if self.pool_active:
            stats["pool"] = self._pool.statistics()
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedIngestor({self.query.name!r}, k={self.k}, "
            f"shards={self.num_shards}, partition_attr={self.partition_attr!r})"
        )
