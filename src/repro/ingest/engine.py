"""The :class:`IngestionEngine`: one chunk-dispatch loop for every ingestor.

Historically each ingestion mode re-implemented the same skeleton — cut the
stream into chunks, hand each chunk to one or more delivery targets, keep
counters — with small policy differences (how a chunk is split across
targets, what happens at a chunk boundary).  This module extracts that
skeleton once.  The public ingestors are thin policies over it:

* :class:`~repro.ingest.batch.BatchIngestor` — one lane, no routing;
* :class:`~repro.ingest.shard.ShardedIngestor` — one lane per shard, a
  hash-partitioning router;
* :class:`~repro.ingest.pipeline.AsyncIngestor` stacks a transport *on
  top* of any engine-backed ingestor (one worker thread calling its
  ``ingest_batch``) instead of forming a parallel class hierarchy.

Feeding one stream to several samplers needs no engine of its own: call
each sampler's :func:`~repro.core.backend.chunk_apply` on every chunk of
one :func:`~repro.relational.stream.chunk_stream` pass.

Anatomy of one ``ingest_batch`` call
------------------------------------
1. **Route** — the chunk is materialised and split into per-lane parts by
   the ``router`` (hash partitioning for shards; a single lane without a
   router receives the chunk as is).  A routing policy that validates (the
   sharded hash router validates the whole chunk) raises here, *before*
   any lane mutates — all-or-nothing.  Routerless policies delegate
   whole-chunk validation to the backend's own pre-mutation contract
   (``insert_batch`` validates before mutating; the probed per-tuple
   fallback of :func:`repro.core.backend.chunk_apply` validates against
   the backend's query when it exposes one).
2. **Dispatch** — each non-empty part is applied to its lane, and the
   lane's delivery counters advance.
3. **Hooks** — ``after_chunk(items, parts)`` callbacks run at the chunk
   boundary (where the uniformity guarantee holds): counter roll-ups,
   cache invalidation, epoch cuts, timed checkpoints.

Error semantics: an exception raised while routing leaves every lane
untouched; an exception raised by a lane's ``apply`` aborts the dispatch
loop mid-chunk (earlier lanes have absorbed the part, later ones have not)
and no boundary hook runs.  Policies that must survive a lane failure
poison the whole pipeline (the async transport); the engine itself never
hides a failure.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

from ..relational.stream import chunk_stream

#: Default number of stream tuples per ingested chunk.  Large enough to
#: amortise per-batch dispatch, small enough that samples stay fresh and a
#: chunk of join deltas fits comfortably in memory.
DEFAULT_CHUNK_SIZE = 1024


class EngineLane:
    """One delivery target of an :class:`IngestionEngine`.

    ``apply`` takes one chunk part and absorbs it whole — typically a bound
    ``BatchIngestor.ingest_batch``, a sampler's ``insert_batch``, or the
    probed fallback from :func:`repro.core.backend.chunk_apply`.
    ``chunks_applied`` / ``tuples_applied`` count the delivered parts.
    """

    __slots__ = ("name", "apply", "chunks_applied", "tuples_applied")

    def __init__(self, name: str, apply: Callable[[Sequence], object]) -> None:
        self.name = name
        self.apply = apply
        self.chunks_applied = 0
        self.tuples_applied = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EngineLane({self.name!r}, chunks={self.chunks_applied})"


class IngestionEngine:
    """Chunked dispatch across lanes with per-lane delivery counters.

    Parameters
    ----------
    lanes:
        The delivery targets, in routing order.
    chunk_size:
        How many stream tuples :meth:`ingest` cuts per chunk.  The
        uniformity guarantee of every backend holds at chunk boundaries.
    router:
        ``router(items) -> List[parts]`` splitting one chunk into per-lane
        parts (``len(parts) == len(lanes)``; empty parts are skipped).
        ``None`` is pass-through and needs exactly one lane.  The router
        runs before any lane is touched, so it is also the whole-chunk
        validation point.
    after_chunk:
        Callbacks ``hook(items, parts)`` run after every successfully
        dispatched chunk — the chunk boundary.

    Attributes
    ----------
    batches_ingested / tuples_ingested:
        Chunks / stream tuples dispatched so far (tuples counted once,
        before any broadcast replication by the router).
    """

    def __init__(
        self,
        lanes: Iterable[EngineLane],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        router: Optional[Callable[[List], List[List]]] = None,
        after_chunk: Iterable[Callable[[List, List[List]], None]] = (),
    ) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk size must be positive")
        self.lanes: List[EngineLane] = list(lanes)
        if router is None and len(self.lanes) != 1:
            raise ValueError("an engine without a router needs exactly one lane")
        self.chunk_size = chunk_size
        self.router = router
        self.after_chunk: List[Callable] = list(after_chunk)
        self.batches_ingested = 0
        self.tuples_ingested = 0

    # ------------------------------------------------------------------ #
    # Boundary hooks
    # ------------------------------------------------------------------ #
    def add_boundary_hook(
        self, hook: Callable[[List, List[List]], None]
    ) -> Callable[[List, List[List]], None]:
        """Register ``hook(items, parts)`` to run at every chunk boundary.

        The public registration point for everything that must observe the
        stream exactly where the uniformity guarantee holds: the serving
        layer's epoch cuts, timer-based background checkpointing.  Hooks
        run in registration order, after the chunk has been
        fully dispatched; a hook that raises aborts the ``ingest_batch``
        call (the chunk itself is already absorbed).  Returns ``hook`` so it
        can be registered inline.
        """
        self.after_chunk.append(hook)
        return hook

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def ingest_batch(self, items: Sequence) -> int:
        """Route one chunk across the lanes and apply every non-empty part.

        Returns the number of stream tuples dispatched (before any
        broadcast replication by the router).  An empty chunk is a no-op
        and does not count as a batch.  On return every lane sits at a
        chunk boundary.
        """
        items = list(items)
        # Snapshot the size before dispatch: a backend may legally consume
        # its part destructively, and counters/return value must describe
        # what was delivered, not what the backend left behind.
        tuples = len(items)
        if not tuples:
            return 0
        parts = [items] if self.router is None else self.router(items)
        for lane, part in zip(self.lanes, parts):
            part_tuples = len(part)
            if not part_tuples:
                continue
            lane.apply(part)
            lane.chunks_applied += 1
            lane.tuples_applied += part_tuples
        self.batches_ingested += 1
        self.tuples_ingested += tuples
        for hook in self.after_chunk:
            hook(items, parts)
        return tuples

    def ingest(self, stream: Iterable, sink: Optional[Callable[[List], int]] = None) -> "IngestionEngine":
        """Cut ``stream`` into chunks and push them all through ``sink``.

        ``sink`` defaults to :meth:`ingest_batch`; policies with their own
        per-chunk dispatch (the sharded pool path) pass their public
        ``ingest_batch`` so a flat-stream ingest is exactly a loop of it.
        """
        push = sink if sink is not None else self.ingest_batch
        for chunk in chunk_stream(stream, self.chunk_size):
            push(chunk)
        return self

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """The engine's resumable accounting: chunk counters, lane layout
        and per-lane delivery counters.  Lane ``apply`` callables are *not*
        captured — a restore rebuilds the lanes from restored backends and
        then loads this state on top.
        """
        return {
            "chunk_size": self.chunk_size,
            "batches_ingested": self.batches_ingested,
            "tuples_ingested": self.tuples_ingested,
            "lanes": [
                {
                    "name": lane.name,
                    "chunks_applied": lane.chunks_applied,
                    "tuples_applied": lane.tuples_applied,
                }
                for lane in self.lanes
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`snapshot_state` snapshot into this engine.

        The lane layout must match the snapshot (same count — the lanes
        were rebuilt from the same checkpoint), otherwise ``ValueError``.
        Keys this engine no longer reads (the timing accumulators older
        snapshots carry) are ignored.
        """
        if len(state["lanes"]) != len(self.lanes):
            raise ValueError(
                f"engine snapshot has {len(state['lanes'])} lanes, but this "
                f"engine has {len(self.lanes)}"
            )
        self.chunk_size = state["chunk_size"]
        self.batches_ingested = state["batches_ingested"]
        self.tuples_ingested = state["tuples_ingested"]
        for lane, entry in zip(self.lanes, state["lanes"]):
            lane.chunks_applied = entry["chunks_applied"]
            lane.tuples_applied = entry["tuples_applied"]

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def statistics(self) -> dict:
        """The engine's own counters (policies merge these with their own)."""
        return {
            "batches_ingested": self.batches_ingested,
            "tuples_ingested": self.tuples_ingested,
            "chunk_size": self.chunk_size,
            "lanes": len(self.lanes),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IngestionEngine(lanes={len(self.lanes)}, "
            f"chunk_size={self.chunk_size}, batches={self.batches_ingested})"
        )


__all__ = ["DEFAULT_CHUNK_SIZE", "EngineLane", "IngestionEngine"]
