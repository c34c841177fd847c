"""Async pipelined transport: overlap chunk delivery with sampler CPU.

Synchronous ingestion interleaves two costs that have no business waiting on
each other: *transport* (the blocking wait for the next chunk — a network
fetch, a Kafka poll, a paginated scan) and *sampler CPU* (index maintenance
plus reservoir work).  :class:`AsyncIngestor` splits them across two
threads: the producer thread iterates the (possibly blocking) source and
enqueues chunks onto one bounded buffer, and one worker thread pops chunks
and drives the target — so while the producer sleeps on the transport, the
worker chews through the backlog, and end-to-end wall clock approaches
``max(transport_seconds, cpu_seconds)`` instead of their sum.

Topology
--------
Every target gets the same single lane: one queue and one worker applying
chunks in arrival order through the capability probe of
:func:`repro.core.backend.chunk_apply` — ``ingest_batch`` (a
:class:`~repro.ingest.batch.BatchIngestor`, a
:class:`~repro.ingest.shard.ShardedIngestor`), else ``insert_batch`` (a
sampler's bulk path), else the validated per-tuple fallback.  The target
sees exactly the chunk sequence a synchronous loop would feed it, so with
equal seeds its state is bit-identical to synchronous ingestion.

A sharded target routes, validates and dispatches each chunk inside its own
``ingest_batch`` on the worker thread.  One thread per shard was tried and
removed: the shard work is pure Python and holds the GIL, so over a
blocking source (60k tuples, 20 ms per 2048-tuple chunk, 4 shards) it gave
the same samples and no faster wall — medians 2.98 vs 3.06 s, then 3.03 vs
2.79 s with one thread ahead in 9 of 10 pairs.

Backpressure and boundaries
---------------------------
The queue is bounded at ``buffer_chunks``; when the target falls behind,
the producer blocks in :meth:`submit` — bounded memory, honest flow
control.  The chunk-boundary uniformity guarantee is preserved: after
:meth:`drain` (or :meth:`ingest`'s return) every submitted chunk has been
fully absorbed, so that point *is* a chunk boundary and sampling/merging is
safe.  :meth:`merged_sample`/:meth:`sample` drain first for exactly that
reason.

A worker failure is not lost, and it is *sticky*: the first exception
poisons the pipeline — every subsequent :meth:`submit`, :meth:`drain`,
:meth:`merged_sample` or :meth:`sample` re-raises it, and the worker
discards the backlog behind the failed chunk, because the target then holds
a stream with a hole in it and no sample drawn from it is trustworthy.  A
clean ``with`` exit also re-raises an undrained failure; only a direct
:meth:`close` call (the cleanup path, typically after the failure was
already caught) shuts the worker down without raising.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.backend import chunk_apply, restore_backend, snapshot_backend
from ..relational.stream import StreamTuple, chunk_stream
from .batch import DEFAULT_CHUNK_SIZE
from .checkpoint import CODEC

#: Default bound on the worker queue, in chunks.
DEFAULT_BUFFER_CHUNKS = 8

_STOP = object()  # queue sentinel: worker shutdown


class _Worker:
    """The consumer thread bound to the bounded chunk queue."""

    def __init__(self, name: str, apply, buffer_chunks: int) -> None:
        self.queue: "queue.Queue" = queue.Queue(maxsize=buffer_chunks)
        self.busy_seconds = 0.0
        self.chunks_processed = 0
        self.error: Optional[BaseException] = None
        self.poisoned = False
        self._apply = apply
        self.thread = threading.Thread(target=self._run, name=name, daemon=True)

    def _run(self) -> None:
        while True:
            item = self.queue.get()
            try:
                if item is _STOP:
                    return
                if self.poisoned:
                    continue  # discard the backlog; do not count it as work
                start = time.perf_counter()
                try:
                    self._apply(item)
                finally:
                    self.busy_seconds += time.perf_counter() - start
                self.chunks_processed += 1
            except BaseException as error:  # surfaced via _raise_pending
                self.poisoned = True
                self.error = error
            finally:
                self.queue.task_done()


class AsyncIngestor:
    """Pipelined chunk ingestion behind one bounded queue and one worker.

    Parameters
    ----------
    target:
        Where chunks land, applied through the capability probe of
        :func:`repro.core.backend.chunk_apply` — ``ingest_batch`` (a
        :class:`~repro.ingest.batch.BatchIngestor`, a
        :class:`~repro.ingest.shard.ShardedIngestor`), else ``insert_batch``
        (a sampler's bulk path), else the per-tuple fallback.
    chunk_size:
        Chunk size used by :meth:`ingest` when handed a flat stream.
    buffer_chunks:
        Bound of the worker queue, in chunks — the backpressure knob.
    """

    def __init__(
        self,
        target,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        buffer_chunks: int = DEFAULT_BUFFER_CHUNKS,
    ) -> None:
        if buffer_chunks <= 0:
            raise ValueError("buffer_chunks must be positive")
        self.target = target
        self.chunk_size = chunk_size
        self.buffer_chunks = buffer_chunks
        self.chunks_submitted = 0
        self.tuples_submitted = 0
        self.producer_stall_seconds = 0.0
        self.max_queue_depth = 0
        self._closed = False  # no further submits (closed or failed)
        self._stopped = False  # worker thread joined
        self._failure: Optional[BaseException] = None  # first worker error, sticky
        self._boundary_hooks: List = []
        self._chunks_at_last_boundary = 0
        apply, _ = chunk_apply(target)
        self._worker = _Worker("async-ingest", apply, buffer_chunks)
        self._worker.thread.start()

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def submit(self, items: Sequence) -> int:
        """Enqueue one chunk; blocks when the buffer is full (backpressure).

        The target validates the chunk on the worker thread; a bad chunk
        poisons the pipeline and the next call re-raises the error.
        Returns the number of stream tuples accepted.
        """
        self._raise_pending()
        if self._closed:
            raise RuntimeError("this AsyncIngestor is closed")
        items = list(items)
        if not items:
            return 0
        backlog = self._worker.queue
        start = time.perf_counter()
        backlog.put(items)
        self.producer_stall_seconds += time.perf_counter() - start
        depth = backlog.qsize()
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        self.chunks_submitted += 1
        self.tuples_submitted += len(items)
        return len(items)

    def ingest(self, stream: Iterable[StreamTuple]) -> "AsyncIngestor":
        """Chunk a flat stream, submit every chunk, drain; returns ``self``."""
        return self.ingest_chunks(chunk_stream(stream, self.chunk_size))

    def ingest_chunks(self, chunks: Iterable[Sequence]) -> "AsyncIngestor":
        """Submit ready-made chunks (e.g. a
        :class:`~repro.relational.stream.ThrottledChunkSource`), then drain.

        This is the pipelined loop: while the source blocks producing the
        next chunk, the worker ingests the buffered ones.
        """
        for chunk in chunks:
            self.submit(chunk)
        return self.drain()

    # ------------------------------------------------------------------ #
    # Synchronisation
    # ------------------------------------------------------------------ #
    def drain(self) -> "AsyncIngestor":
        """Block until every submitted chunk is fully ingested.

        On return the target sits at a chunk boundary — its reservoirs are
        uniform over the join of everything submitted — and any worker
        error has been re-raised.
        """
        self._worker.queue.join()
        self._raise_pending()
        if self.chunks_submitted > self._chunks_at_last_boundary:
            self._chunks_at_last_boundary = self.chunks_submitted
            for hook in self._boundary_hooks:
                hook(None, None)
        return self

    @property
    def at_boundary(self) -> bool:
        """Whether every submitted chunk has been absorbed at a drain point.

        ``False`` means chunks are in flight (or drained behind the last
        boundary dispatch) and the target's state is not a uniform cut.
        """
        return self.chunks_submitted == self._chunks_at_last_boundary

    def add_boundary_hook(self, hook):
        """Register ``hook(items, parts)`` to run at every chunk boundary.

        An async pipeline only *has* chunk boundaries at drain points, so
        hooks fire once per :meth:`drain` that absorbed new chunks (with
        ``items``/``parts`` as ``None`` — multiple chunks may have passed
        since the last drain).  Between drains chunks are in flight and no
        uniform cut exists to observe.
        """
        self._boundary_hooks.append(hook)
        return hook

    def close(self) -> None:
        """Stop the worker and join its thread (idempotent).

        The cleanup path: drains healthy pipelines, but — unlike every other
        method — does not re-raise a sticky failure, so it is always safe to
        call (e.g. from a ``finally`` after the failure was already caught).
        """
        if self._stopped:
            return
        self._closed = True
        try:
            self._worker.queue.join()
        finally:
            self._stop()

    def _stop(self) -> None:
        """Send the stop sentinel behind the backlog, join the thread, and
        collect any failure it left."""
        if not self._stopped:
            self._stopped = True
            self._worker.queue.put(_STOP)
            self._worker.thread.join()
        self._collect_failure()

    def _collect_failure(self) -> None:
        worker = self._worker
        if worker.error is not None:
            if self._failure is None:
                self._failure = worker.error
            worker.error = None
        if self._failure is not None:
            self._closed = True  # a broken pipeline must not eat chunks

    def _raise_pending(self) -> None:
        self._collect_failure()
        if self._failure is not None:
            raise self._failure

    def __enter__(self) -> "AsyncIngestor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
            if self._failure is not None:
                # A clean `with` exit must not swallow a worker failure the
                # caller never drained for — surface it here, once the
                # thread is already down.
                raise self._failure
            return
        # Error path: never mask the original exception with a drain-raise,
        # but do stop the worker and *join* it — the backlog is bounded by
        # the buffer, and joining leaves the target quiescent (and at a
        # chunk boundary) for whoever catches the exception.
        self._closed = True
        self._stop()

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict[str, object]:
        """Drain, then capture the quiescent target plus pipeline counters.

        An async pipeline only has well-defined state at a chunk boundary —
        mid-flight, the queue holds chunks the target has not absorbed.
        :meth:`drain` *is* the chunk boundary (and re-raises any pending
        worker failure, so a poisoned pipeline refuses to checkpoint), after
        which the target is captured through the same
        :func:`~repro.core.backend.snapshot_backend` probe every other
        ingestor uses.  The restored pipeline resumes the suffix
        bit-identically: a fresh worker is mere transport, all randomness
        lives in the target.
        """
        self.drain()
        return {
            "chunk_size": self.chunk_size,
            "buffer_chunks": self.buffer_chunks,
            "target": snapshot_backend(self.target),
            "chunks_submitted": self.chunks_submitted,
            "tuples_submitted": self.tuples_submitted,
            "producer_stall_seconds": self.producer_stall_seconds,
            "max_queue_depth": self.max_queue_depth,
            "worker_chunks_processed": [self._worker.chunks_processed],
        }

    @classmethod
    def from_snapshot(cls, state: Dict[str, object]) -> "AsyncIngestor":
        """Rebuild a pipeline (fresh worker, restored target) from a snapshot."""
        ingestor = cls(
            restore_backend(state["target"]),
            chunk_size=state["chunk_size"],
            buffer_chunks=state["buffer_chunks"],
        )
        ingestor.chunks_submitted = state["chunks_submitted"]
        ingestor.tuples_submitted = state["tuples_submitted"]
        ingestor.producer_stall_seconds = state["producer_stall_seconds"]
        ingestor.max_queue_depth = state["max_queue_depth"]
        # Checkpoints written under the retired thread-per-shard topology
        # hold one sub-chunk count per shard; those start a fresh counter.
        processed = state["worker_chunks_processed"]
        if len(processed) == 1:
            ingestor._worker.chunks_processed = processed[0]
        return ingestor

    def save(self, path: str) -> None:
        """Drain, then write a checkpoint restorable via :meth:`restore`."""
        CODEC.dump(path, "async", self.snapshot_state())

    @classmethod
    def restore(cls, path: str) -> "AsyncIngestor":
        """Rebuild a :meth:`save`d pipeline; submitting the stream suffix
        resumes bit-identically to an uninterrupted run."""
        return cls.from_snapshot(CODEC.load(path, expected_kind="async")["state"])

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def merged_sample(self, k: Optional[int] = None, rng=None) -> List[dict]:
        """Drain, then draw the target's merged sample (sharded targets)."""
        self.drain()
        return self.target.merged_sample(k, rng=rng)

    @property
    def sample(self) -> List[Dict[str, object]]:
        """Drain, then expose the target sampler's reservoir."""
        self.drain()
        return self.target.sample

    def statistics(self) -> Dict[str, object]:
        """Pipeline counters merged over the target's statistics.

        Exact once :meth:`drain` has returned; mid-flight reads see the
        tuples the producer has *accepted*, some of which the worker is
        still absorbing.  The per-worker figures stay one-element lists.
        """
        stats: Dict[str, object] = {}
        if hasattr(self.target, "statistics"):
            stats.update(self.target.statistics())
        stats.update(
            {
                "async_workers": 1,
                "async_buffer_chunks": self.buffer_chunks,
                "async_chunks_submitted": self.chunks_submitted,
                "async_tuples_submitted": self.tuples_submitted,
                "async_producer_stall_seconds": round(self.producer_stall_seconds, 4),
                "async_max_queue_depth": self.max_queue_depth,
                "async_worker_busy_seconds": [round(self._worker.busy_seconds, 4)],
                "async_chunks_processed": [self._worker.chunks_processed],
            }
        )
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AsyncIngestor({type(self.target).__name__}, "
            f"buffer={self.buffer_chunks}, "
            f"chunks={self.chunks_submitted})"
        )
