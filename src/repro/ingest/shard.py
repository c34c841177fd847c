"""Sharded ingestion: hash-partitioned sampler replicas with an exact merge.

:class:`ShardedIngestor` partitions the batched ingestion seam.  A
*partition attribute* is chosen (by default the attribute shared by the most
relations); every arriving chunk is split by a stable hash of that
attribute's value, relations that do not contain the attribute are broadcast
to every shard, and each shard runs its own independent sampler replica over
its share of the stream.  Shards share no mutable state; each chunk is
routed once and every shard applies its non-empty part in process, in shard
order.  On one machine this is strictly more work than
:class:`~repro.ingest.batch.BatchIngestor` (broadcast relations are ingested
once per shard); the ingestor exists for the merge algorithm below, which
turns independently maintained shard reservoirs into one exactly uniform
sample, and as the reference for the "sharded ≡ unsharded" guarantee.

Correctness (the merge rule)
----------------------------
Every join result binds the partition attribute to a single value, so each
result is *formable in exactly one shard*: the shard owning the hash of that
value holds all of the result's partitioned tuples plus every broadcast
tuple.  The shard-local join result sets therefore partition the global
result set.

Each shard's reservoir is Algorithm 4/5, which is Li's Algorithm L: in law
it keeps the results with the ``capacity`` smallest of i.i.d. U(0, 1) keys,
one key per real result, and its running ``w`` is the ``capacity``-th
smallest key.  Given the reservoir and ``w`` the keys are known in
distribution, with no result count:

* a full shard (finite ``w``) holds ``capacity`` results; one of them,
  chosen uniformly, has key ``w`` and the others have i.i.d. U(0, w) keys;
  every result outside the reservoir has a key above ``w``;
* a shard still filling (``w = inf``) holds its whole local join, with
  i.i.d. U(0, 1) keys.

A turnstile shard's refill continues the order statistics of the same
keys (:mod:`repro.core.turnstile`), so after deletes its ``w`` is still its
true ``capacity``-th smallest key and deletes change nothing here.

:func:`merge_shard_samples` (behind :meth:`ShardedIngestor.merged_sample`
and a served epoch cut alike) regenerates those keys and keeps the ``k``
smallest across all shards: a bottom-``k`` merge of bottom-``k`` sketches.
Because the keys of all shards together are i.i.d. over the global join,
the results holding the ``k`` smallest are a uniform ``k``-subset of it —
exact uniformity, not an approximation.  A result among the global ``k``
smallest keys is among its own shard's ``k`` smallest, so every full
shard's capacity must be at least the merged sample size (the default
replica uses the same ``k``).

The keys are never materialised.  Each shard's keys are drawn lazily in
increasing order from order-statistic spacings (the minimum of ``r`` i.i.d.
U(t, top) keys is ``t + (top - t)(1 - V^(1/r))``) and popped from a heap
over the shards, so a merge costs O(k log S).  A shard whose ``m`` smallest
keys were taken contributes a uniform ``m``-subset of its reservoir: given
``w``, which results hold the smallest keys is uniform.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.backend import chunk_apply, derive_seed, restore_backend, snapshot_backend
from ..core.reservoir import _uniform
from ..core.reservoir_join import ReservoirJoin
from ..relational.query import JoinQuery
from ..relational.schema import tuple_getter
from ..relational.stream import StreamDelete, StreamTuple, chunk_stream, validate_pairs
from .batch import DEFAULT_CHUNK_SIZE
from .checkpoint import CODEC, CheckpointMismatchError

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
    :meth:`ShardedIngestor.partition` resolves shards through this one
    helper, and :meth:`ShardedIngestor.shard_of` applies the same
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


@dataclass(frozen=True)
class ShardState:
    """What the merge needs from one shard: reservoir, running ``w``, capacity."""

    sample: Sequence[dict]
    w: float
    capacity: int


def merge_shard_samples(
    states: Sequence[ShardState], k: int, rng: random.Random
) -> List[dict]:
    """A uniform sample without replacement of the union of the shards'
    disjoint local result sets.

    Keeps the results with the ``k`` smallest regenerated keys across the
    shards (see the module docstring for the uniformity argument), so it
    draws ``k`` results, or every held result when the shards hold fewer
    and none is full.  The live :meth:`ShardedIngestor.merged_sample` and a
    served epoch cut both merge through here, so equal states and equal
    RNGs give equal samples.  ``k`` may not exceed any full shard's
    capacity.
    """
    if k <= 0:
        raise ValueError("merged sample size must be positive")
    for state in states:
        full = not math.isinf(state.w)
        held = len(state.sample)
        if held != state.capacity if full else held >= state.capacity:
            raise RuntimeError(
                f"shard reservoir holds {held} results at "
                f"capacity {state.capacity} with w = {state.w}; the shard "
                "sampler is not an Algorithm 4/5 reservoir over its local join"
            )
        if full and k > state.capacity:
            raise ValueError(
                f"merged sample of size {k} needs per-shard reservoir "
                f"capacity >= {k}, but a full shard has capacity "
                f"{state.capacity}"
            )
    # Each shard's keys are drawn lazily, in increasing order: the next key
    # is the minimum of the ``draws`` keys still spread over (key, top).  A
    # full shard's last key is w itself, so it takes one draw fewer.
    uniform = rng.random
    tops: List[float] = []
    fulls: List[bool] = []
    left: List[int] = []  # keys each shard has not yet given up
    heap: List[Tuple[float, int]] = []
    for shard, state in enumerate(states):
        full = not math.isinf(state.w)
        top = state.w if full else 1.0
        tops.append(top)
        fulls.append(full)
        left.append(len(state.sample))
        draws = len(state.sample) - full
        if draws:
            # ``or`` redraws an exact 0.0, as _uniform does.
            spacing = 1.0 - (uniform() or _uniform(rng)) ** (1.0 / draws)
            heap.append((top * spacing, shard))
        elif full:
            heap.append((top, shard))
    heapq.heapify(heap)
    for _ in range(min(k, sum(left))):
        key, shard = heap[0]
        left[shard] -= 1
        draws = left[shard] - fulls[shard]
        if draws > 0:
            top = tops[shard]
            step = (top - key) * (1.0 - (uniform() or _uniform(rng)) ** (1.0 / draws))
            heapq.heapreplace(heap, (key + step, shard))
        elif left[shard]:
            heapq.heapreplace(heap, (tops[shard], shard))
        else:
            heapq.heappop(heap)
    merged: List[dict] = []
    for state, remaining in zip(states, left):
        take = len(state.sample) - remaining
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
        size ``k``.  Replicas must expose ``reservoir``, the
        :class:`~repro.core.batch_reservoir.BatchedPredicateReservoir` whose
        running ``w`` and capacity the merge reads; :meth:`save`
        additionally needs them to be snapshot-capable or picklable.
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
        if chunk_size <= 0:
            raise ValueError("chunk size must be positive")
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
        self._appliers = [chunk_apply(sampler)[0] for sampler in self.samplers]
        self._hooks: List[Callable[[List, List[List]], None]] = []
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
        # Stream tuples delivered per shard (broadcast replicas included),
        # advanced at routing time.
        self._shard_tuples = [0] * num_shards
        # Per-relation stream tuples routed so far (before broadcast
        # replication) — O(1) observability, surfaced via statistics();
        # dedup inside the shard samplers makes this mix unrecoverable from
        # stored state.
        self.relation_deliveries: Dict[str, int] = {
            name: 0 for name in query.relation_names
        }

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
        """Split a batch into per-shard sub-batches, in stream order.

        The whole batch is validated first (unknown relation → ``KeyError``,
        wrong arity → ``ValueError``) so a failed call leaves every shard
        untouched.  Broadcast tuples appear in every shard's sub-batch.
        Side-effect-free: inspecting routing never advances any counter —
        the delivery point (:meth:`ingest_batch`) uses :meth:`_route`
        instead.
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
        :meth:`merged_sample` partition argument needs.  Stream items pass
        through as they came: a ``StreamDelete`` reaches the per-shard
        sampler's ``ingest_batch`` as a retraction, and a ``StreamTuple``
        keeps its timestamp, which a timestamp-windowed shard reads.
        """
        pairs: List[Tuple[str, Tuple]] = []
        payloads: List[object] = []
        for item in items:
            if isinstance(item, (StreamTuple, StreamDelete)):
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
    # Ingestion
    # ------------------------------------------------------------------ #
    def ingest_batch(self, items: Sequence) -> int:
        """Partition one chunk across the shards and ingest every sub-chunk.

        Returns the number of stream tuples pushed (before broadcast
        replication).  The chunk is routed first, which validates it whole:
        a bad chunk raises before any shard mutates.  Each shard then
        applies its non-empty part, after which every reservoir is uniform
        over its local result set.  An empty chunk is a no-op and does not
        count as a batch.
        """
        items = list(items)
        tuples = len(items)
        if not tuples:
            return 0
        parts = self._route(items)
        # Sized before dispatch: a backend may consume its part destructively.
        sizes = [len(part) for part in parts]
        for apply, part in zip(self._appliers, parts):
            if part:
                apply(part)
        self.tuples_ingested += tuples
        self.batches_ingested += 1
        self.broadcast_deliveries += sum(sizes) - tuples
        for shard, size in enumerate(sizes):
            self._shard_tuples[shard] += size
        for hook in self._hooks:
            hook(items, parts)
        return tuples

    def ingest(self, stream: Iterable[StreamTuple]) -> "ShardedIngestor":
        """Cut ``stream`` into chunks and ingest them all; returns ``self``."""
        for chunk in chunk_stream(stream, self.chunk_size):
            self.ingest_batch(chunk)
        return self

    def add_boundary_hook(self, hook):
        """Register ``hook(items, parts)`` to run at every chunk boundary.

        Fires in registration order, after the counters advance — so a hook reading ``tuples_ingested``
        sees the chunk already accounted.  Returns ``hook``.
        """
        self._hooks.append(hook)
        return hook

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict[str, object]:
        """The ingestor's complete resumable state: one sub-checkpoint per
        shard plus the layout (shard count, chunk size, partition
        attribute), the counters and both randomness sources (the master
        RNG state and the derived per-shard seeds).

        Taken at the chunk boundary the caller stands on: every shard has
        absorbed the last routed chunk before ``ingest_batch`` returns.
        Requires every shard replica to be snapshot-capable or picklable,
        which the default :class:`ReservoirJoin` replicas are.
        """
        return {
            "query": self.query,
            "k": self.k,
            "num_shards": self.num_shards,
            "chunk_size": self.chunk_size,
            "partition_attr": self.partition_attr,
            "shard_seeds": list(self._shard_seeds),
            "rng": self._rng.getstate(),
            "shards": [snapshot_backend(sampler) for sampler in self.samplers],
            "counters": {
                "tuples_ingested": self.tuples_ingested,
                "batches_ingested": self.batches_ingested,
                "broadcast_deliveries": self.broadcast_deliveries,
                "relation_deliveries": dict(self.relation_deliveries),
                "shard_tuples": list(self._shard_tuples),
            },
        }

    def save(self, path: str) -> None:
        """Write a checkpoint of :meth:`snapshot_state` (call at a chunk
        boundary)."""
        CODEC.dump(path, "sharded", self.snapshot_state())

    @classmethod
    def from_snapshot(cls, state: Dict[str, object]) -> "ShardedIngestor":
        """Rebuild an ingestor from a :meth:`snapshot_state` snapshot.

        Older snapshots also carry keys this version ignores: the measured
        ``parallel_wall_seconds`` of the retired worker pool, an ``engine``
        record, and one ``shard_engines`` record per shard.  Only the
        per-shard tuple counts are read from the last, and only when
        ``counters`` lacks them.
        """
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
        counters = state["counters"]
        ingestor.tuples_ingested = counters["tuples_ingested"]
        ingestor.batches_ingested = counters["batches_ingested"]
        ingestor.broadcast_deliveries = counters["broadcast_deliveries"]
        ingestor.relation_deliveries = dict(counters["relation_deliveries"])
        if "shard_tuples" in counters:
            ingestor._shard_tuples = list(counters["shard_tuples"])
        else:
            ingestor._shard_tuples = [
                record["tuples_ingested"] for record in state["shard_engines"]
            ]
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
    def shard_states(self) -> List[ShardState]:
        """Every shard's merge inputs (reservoir, running ``w``, capacity),
        read at the current chunk boundary in O(capacity) each."""
        states: List[ShardState] = []
        for sampler in self.samplers:
            reservoir = getattr(sampler, "reservoir", None)
            if reservoir is None:
                raise TypeError(
                    f"{type(sampler).__name__} exposes no reservoir; the "
                    "sharded merge reads each shard's running w from it"
                )
            states.append(ShardState(reservoir.sample, reservoir.w, reservoir.k))
        return states

    def shard_samples(self) -> List[List[dict]]:
        """Every shard's reservoir, in shard order."""
        return [list(sampler.sample) for sampler in self.samplers]

    # ------------------------------------------------------------------ #
    # Load observability
    # ------------------------------------------------------------------ #
    def shard_loads(self) -> List[int]:
        """Stream tuples delivered per shard so far (O(1) observability),
        counted at routing time."""
        return list(self._shard_tuples)

    def load_imbalance(self) -> float:
        """Hottest shard's load over the mean load (1.0 = perfectly even).

        An O(1) skew signal, safe to poll at every chunk boundary; loads
        count delivered stream tuples (broadcast replicas included), which
        is what each shard's sampler actually pays for.
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

        Draws ``min(k, |Q(R)|)`` results by keeping the ``k`` smallest
        regenerated keys across the shard reservoirs (see the module
        docstring for the uniformity argument); no shard is recounted.
        Repeated calls draw independent merged samples from the same shard
        state.  ``k`` defaults to the constructor's ``k`` and may not exceed
        any full shard's reservoir capacity.
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

        Exact join result counts are not reported: they cost an O(N) pass
        per shard (:func:`repro.relational.join.count_results`), and nothing
        here needs them.
        """
        return {
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
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedIngestor({self.query.name!r}, k={self.k}, "
            f"shards={self.num_shards}, partition_attr={self.partition_attr!r})"
        )
