"""Persistent shard worker pool: long-lived processes, cheap chunk handoff.

The runtime follows the sharded executor literature (Photon-style
long-lived workers, morsel-driven parallelism):

* **Long-lived workers.**  :class:`ShardWorkerPool` spawns one process per
  shard, *once*.  Each worker rebuilds a live shard replica from the same
  snapshot record a checkpoint would carry (:func:`repro.core.backend
  .snapshot_backend` → :func:`restore_backend`), so worker-side state is
  exactly the parent-side state — including the replica's RNG, bit for bit.
* **Cheap chunk handoff.**  The parent routes each chunk with the same hash
  router as serial ingestion and ships each shard *the exact sub-chunk
  sequence the serial path would have fed it*, pickled inline over a
  persistent duplex pipe per worker.  On the wire a sub-chunk is the list
  of ``(relation, row)`` pairs every ingest seam normalises to
  (``as_relation_rows``) — logically identical to the StreamTuples the
  serial path sees, but far cheaper to pickle.  Workers apply each
  sub-chunk through the same :func:`~repro.core.backend.chunk_apply` path
  the serial shard uses, so a pool-fed replica is **bit-identical** to its
  serial counterpart — not merely set-equal.
* **Pipelined scatter, explicit barriers.**  ``submit`` returns once the
  sub-chunks are handed off (bounded by :data:`DEFAULT_MAX_PENDING` in
  flight per worker — honest backpressure); :meth:`drain` is the chunk
  boundary.  The owner measures the wall clock from submit through drain;
  the pool itself keeps only delivery counters.
* **Sticky poison.**  The first worker failure (an exception shipped back,
  or the process dying outright) poisons the pool in the
  :class:`~repro.ingest.pipeline.AsyncIngestor` style: every subsequent
  ``submit``/``drain``/state read re-raises the same
  :class:`WorkerCrashError`, because shards that saw different chunk
  prefixes can no longer produce a trustworthy merged sample.
* **Live-state round trips.**  At any drain point the parent can pull each
  worker's reservoir + exact local count (for ``merged_sample`` against
  live workers) or its full snapshot record (for ``CheckpointCodec``
  checkpoints taken *through* the pool).

The pool is deliberately sampler-agnostic: anything whose snapshot record
restores into a live sampler (native ``snapshot_state`` capability or the
generic pickle fallback) can live in a worker — which is how cyclic
replicas and custom factories ride the parallel path.
"""

from __future__ import annotations

import multiprocessing
import traceback
import weakref
from multiprocessing import connection
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.backend import (
    chunk_apply,
    restore_backend,
    restore_transport,
    snapshot_backend,
    snapshot_transport,
)
from ..relational.stream import StreamDelete, StreamTuple, as_relation_rows

#: Maximum sub-chunks in flight per worker before ``submit`` blocks on acks
#: — the same bounded-buffer backpressure idea as the async transport.
DEFAULT_MAX_PENDING = 8


class WorkerCrashError(RuntimeError):
    """A pool worker failed (exception or process death); the pool is
    poisoned — shard replicas have seen different chunk prefixes, so no
    sample drawn across them is trustworthy.  Carries the shard index and
    the worker-side traceback (or death notice)."""

    def __init__(self, shard: int, description: str) -> None:
        super().__init__(
            f"shard worker {shard} failed; the pool is poisoned (every shard "
            f"must see its full sub-chunk sequence for the merge to be "
            f"uniform) — close the pool and rebuild from the last "
            f"checkpoint.\n--- worker {shard} ---\n{description}"
        )
        self.shard = shard


def _pool_worker_main(conn, shard: int, init_payload: bytes) -> None:
    """One worker's service loop: build the replica once, then serve
    sub-chunks, state reads and snapshot requests until ``close``.

    Every failure — a bad init payload, an exception while applying a
    sub-chunk — is reported back as an ``("error", traceback)``
    message and latches the worker into a poisoned state that answers
    everything but ``close`` with the same error (the parent raises it as
    :class:`WorkerCrashError`).
    """
    # Deferred: avoid import cycles (shard.py imports this module).
    from .shard import exact_result_count

    sampler = None
    apply = None
    poisoned: Optional[str] = None
    try:
        sampler = restore_backend(restore_transport(init_payload))
        apply = chunk_apply(sampler)[0]
    except BaseException:
        poisoned = traceback.format_exc()
        try:
            conn.send(("error", poisoned))
        except (OSError, BrokenPipeError):
            return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        tag = message[0]
        if tag == "close":
            break
        try:
            if poisoned is not None:
                conn.send(("error", poisoned))
                continue
            if tag == "chunk":
                _, seq, part = message
                apply(part)
                conn.send(("ok", seq))
            elif tag == "state":
                # No index means no exact count; the parent raises for it.
                count = (
                    exact_result_count(sampler)
                    if getattr(sampler, "index", None) is not None
                    else None
                )
                capacity = getattr(sampler, "k", None)
                conn.send(("state", (list(sampler.sample), count, capacity)))
            elif tag == "snapshot":
                conn.send(("snapshot", snapshot_transport(snapshot_backend(sampler))))
            else:
                raise ValueError(f"unknown pool command {tag!r}")
        except BaseException:
            poisoned = traceback.format_exc()
            try:
                conn.send(("error", poisoned))
            except (OSError, BrokenPipeError):
                break
    try:
        conn.close()
    except OSError:  # pragma: no cover - already gone
        pass


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = (
        "shard",
        "process",
        "conn",
        "pending_acks",
        "delivered_tuples",
        "chunks_shipped",
    )

    def __init__(self, shard: int, process, conn) -> None:
        self.shard = shard
        self.process = process
        self.conn = conn
        self.pending_acks: List[int] = []
        self.delivered_tuples = 0
        self.chunks_shipped = 0


def _terminate_processes(processes) -> None:
    """Finalizer: make sure orphaned worker processes never outlive their
    pool (daemon processes would die with the parent anyway; this reclaims
    them as soon as the pool is garbage collected)."""
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        if process.is_alive():
            process.join(timeout=5)


class ShardWorkerPool:
    """One long-lived worker process per shard, fed sub-chunks over a
    persistent pipe.

    Parameters
    ----------
    worker_inits:
        One :func:`~repro.core.backend.snapshot_backend` record per shard.
        Workers rebuild their replica from the record, so a pool started
        mid-stream (or from a restored checkpoint) continues exactly where
        the parent-side replicas stood.
    """

    def __init__(self, worker_inits: Sequence[Dict[str, object]]) -> None:
        if not worker_inits:
            raise ValueError("a worker pool needs at least one shard")
        self._failure: Optional[WorkerCrashError] = None
        self._closed = False
        self._seq = 0
        self.workers: List[_WorkerHandle] = []
        for shard, init in enumerate(worker_inits):
            parent_conn, child_conn = multiprocessing.Pipe()
            process = multiprocessing.Process(
                target=_pool_worker_main,
                args=(child_conn, shard, snapshot_transport(init)),
                name=f"shard-pool-{shard}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self.workers.append(_WorkerHandle(shard, process, parent_conn))
        self._finalizer = weakref.finalize(
            self, _terminate_processes, [w.process for w in self.workers]
        )

    # ------------------------------------------------------------------ #
    # Liveness
    # ------------------------------------------------------------------ #
    @property
    def active(self) -> bool:
        return not self._closed

    @property
    def poisoned(self) -> bool:
        return self._failure is not None

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def _poison(self, error: WorkerCrashError) -> None:
        if self._failure is None:
            self._failure = error
        raise self._failure

    def _raise_pending(self) -> None:
        if self._failure is not None:
            raise self._failure
        if self._closed:
            raise RuntimeError("this ShardWorkerPool is closed")

    # ------------------------------------------------------------------ #
    # Receive path
    # ------------------------------------------------------------------ #
    def _dispatch(self, handle: _WorkerHandle, message: Tuple) -> None:
        tag = message[0]
        if tag == "ok":
            if handle.pending_acks and handle.pending_acks[0] == message[1]:
                handle.pending_acks.pop(0)
            return
        if tag == "error":
            self._poison(WorkerCrashError(handle.shard, message[1]))
        raise ValueError(f"unexpected pool reply {tag!r}")  # pragma: no cover

    def _receive(self, handle: _WorkerHandle, block: bool) -> bool:
        """Absorb one message from ``handle``; returns whether one arrived.

        Blocks (when asked) on both the pipe and the worker's death
        sentinel, so a hard-killed worker surfaces as a
        :class:`WorkerCrashError` instead of a hang.
        """
        while True:
            try:
                if handle.conn.poll(0):
                    self._dispatch(handle, handle.conn.recv())
                    return True
            except (EOFError, OSError):
                self._poison(
                    WorkerCrashError(
                        handle.shard,
                        f"worker process died (exitcode "
                        f"{handle.process.exitcode})",
                    )
                )
            if not block:
                return False
            ready = connection.wait([handle.conn, handle.process.sentinel])
            if handle.conn not in ready:
                # The process died; one final poll catches a racing last
                # message (e.g. the error report) before declaring death.
                if not handle.conn.poll(0):
                    self._poison(
                        WorkerCrashError(
                            handle.shard,
                            f"worker process died (exitcode "
                            f"{handle.process.exitcode})",
                        )
                    )

    def collect(self) -> None:
        """Absorb every ack that is already waiting (non-blocking)."""
        if self._failure is not None or self._closed:
            return
        for handle in self.workers:
            while self._receive(handle, block=False):
                pass

    # ------------------------------------------------------------------ #
    # Send path
    # ------------------------------------------------------------------ #
    def _send(self, handle: _WorkerHandle, message: Tuple) -> None:
        # A worker that died with the pipe idle surfaces on the *send* side
        # first (EPIPE); report it as the same WorkerCrashError the receive
        # path raises instead of leaking a BrokenPipeError.
        try:
            handle.conn.send(message)
        except (BrokenPipeError, OSError):
            self._poison(
                WorkerCrashError(
                    handle.shard,
                    f"worker process died (exitcode "
                    f"{handle.process.exitcode})",
                )
            )

    def _send_chunk(self, handle: _WorkerHandle, seq: int, part: List) -> None:
        # Normalise to the ``(relation, row)`` pairs every ingest seam
        # accepts (see ``chunk_apply``): the logical items are identical —
        # backends normalise StreamTuples to exactly these pairs anyway —
        # but they pickle an order of magnitude cheaper, which is most of
        # the pool's IPC tax on a chunk.  ``ShardedIngestor._route`` already
        # emits pair form, so the common case is a type scan, not a rebuild.
        if not all(type(item) is tuple for item in part):
            if any(isinstance(item, StreamDelete) for item in part):
                # Turnstile sub-chunks: retractions must arrive at the worker
                # as retractions (and in stream order), so inserts are
                # normalised item-by-item around the StreamDelete objects.
                part = [
                    item
                    if isinstance(item, StreamDelete)
                    else (item.relation, item.row)
                    if isinstance(item, StreamTuple)
                    else (item[0], tuple(item[1]))
                    for item in part
                ]
            else:
                part = as_relation_rows(part)
        self._send(handle, ("chunk", seq, part))
        handle.pending_acks.append(seq)
        handle.chunks_shipped += 1
        handle.delivered_tuples += len(part)
        while len(handle.pending_acks) > DEFAULT_MAX_PENDING:
            self._receive(handle, block=True)

    def submit(self, parts: Sequence[List]) -> int:
        """Scatter one routed chunk (``parts[shard]`` per worker).

        Empty parts are skipped exactly as serial dispatch skips them, so
        every worker sees the serial path's sub-chunk sequence verbatim.
        Returns the chunk's sequence number.  Pipelined: workers may still
        be ingesting when this returns — :meth:`drain` is the barrier.
        """
        self._raise_pending()
        if len(parts) != len(self.workers):
            raise ValueError(
                f"routed chunk has {len(parts)} parts for {len(self.workers)} "
                "pool workers"
            )
        self.collect()
        seq = self._seq
        self._seq += 1
        # No defensive copy: the pipe pickles the part before ``send``
        # returns, so the caller may reuse its buffers immediately after.
        for handle, part in zip(self.workers, parts):
            if part:
                self._send_chunk(handle, seq, part)
        return seq

    # ------------------------------------------------------------------ #
    # Barriers and state round trips
    # ------------------------------------------------------------------ #
    def drain(self) -> None:
        """Block until every scattered sub-chunk is fully ingested — the
        pool's chunk boundary.  Re-raises a sticky failure."""
        self._raise_pending()
        for handle in self.workers:
            while handle.pending_acks:
                self._receive(handle, block=True)

    def _request(self, handle: _WorkerHandle, message: Tuple, expect: str):
        self._send(handle, message)
        while True:
            try:
                reply = handle.conn.recv()
            except (EOFError, OSError):
                self._poison(
                    WorkerCrashError(
                        handle.shard,
                        f"worker process died (exitcode "
                        f"{handle.process.exitcode})",
                    )
                )
            if reply[0] == expect:
                return reply[1]
            self._dispatch(handle, reply)

    def shard_states(self) -> List[Tuple[List[dict], Optional[int], Optional[int]]]:
        """Drain, then fetch ``(sample, exact_count, capacity)`` from every
        live worker — what ``merged_sample`` needs, read at a chunk
        boundary."""
        self.drain()
        return [
            self._request(handle, ("state",), "state") for handle in self.workers
        ]

    def snapshots(self) -> List[Dict[str, object]]:
        """Drain, then fetch each worker's replica as a
        :func:`~repro.core.backend.snapshot_backend` record — the same record
        the serial checkpointing path captures, so a checkpoint written
        through the pool restores through the unchanged ``CheckpointCodec``
        probe."""
        self.drain()
        return [
            restore_transport(self._request(handle, ("snapshot",), "snapshot"))
            for handle in self.workers
        ]

    # ------------------------------------------------------------------ #
    # Counters
    # ------------------------------------------------------------------ #
    @property
    def delivered_tuples(self) -> List[float]:
        """Stream tuples shipped per worker so far (broadcasts included)."""
        return [handle.delivered_tuples for handle in self.workers]

    def statistics(self) -> Dict[str, object]:
        return {
            "workers": len(self.workers),
            "chunks_shipped": [h.chunks_shipped for h in self.workers],
            "tuples_shipped": [h.delivered_tuples for h in self.workers],
            "poisoned": self.poisoned,
        }

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the workers and release every IPC resource (idempotent).

        A healthy pool is drained first so no scattered chunk is silently
        dropped; a poisoned pool skips the drain (its backlog is
        meaningless) and just reclaims the processes.  Never raises the
        sticky failure — this is the cleanup path.
        """
        if self._closed:
            return
        self._closed = True
        if self._failure is None:
            try:
                for handle in self.workers:
                    while handle.pending_acks:
                        self._receive(handle, block=True)
            except WorkerCrashError:
                pass
        for handle in self.workers:
            try:
                handle.conn.send(("close",))
            except (OSError, BrokenPipeError):
                pass
        for handle in self.workers:
            handle.process.join(timeout=5)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(timeout=5)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._finalizer.detach()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "poisoned" if self.poisoned else ("closed" if self._closed else "live")
        return f"ShardWorkerPool(workers={len(self.workers)}, {state})"


__all__ = [
    "DEFAULT_MAX_PENDING",
    "WorkerCrashError",
    "ShardWorkerPool",
]
