"""The :class:`BatchIngestor` driver.

See the package docstring for the design rationale.  The ingestor is the
simplest chunk loop: one sampler, no routing.  It is sampler agnostic — its
apply callable comes from :func:`repro.core.backend.chunk_apply`, which
probes once for the sampler's chunk method (``ingest_batch``, else
``insert_batch``; a per-tuple sampler gets the latter from
:class:`~repro.core.backend.PerTupleBatchMixin`).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence

from ..core.backend import chunk_apply, restore_backend, snapshot_backend
from ..relational.stream import StreamTuple, chunk_stream
from .checkpoint import CODEC

#: Default number of stream tuples per ingested chunk.  Large enough to
#: amortise per-batch dispatch, small enough that samples stay fresh and a
#: chunk of join deltas fits comfortably in memory.
DEFAULT_CHUNK_SIZE = 1024


class BatchIngestor:
    """Drive a sampler with chunks of stream tuples.

    Parameters
    ----------
    sampler:
        Any sampler with an ``ingest_batch(items)`` or ``insert_batch(items)``
        method (``TypeError`` otherwise).
    chunk_size:
        How many stream tuples to accumulate per chunk call.
        The reservoir is guaranteed uniform at every chunk boundary.

    Attributes
    ----------
    batches_ingested / tuples_ingested:
        How many chunks / stream tuples have been pushed so far.
    """

    def __init__(self, sampler, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk size must be positive")
        self.sampler = sampler
        self._apply = chunk_apply(sampler)[0]
        self.chunk_size = chunk_size
        self.batches_ingested = 0
        self.tuples_ingested = 0
        self._hooks: List[Callable] = []

    def ingest_batch(self, items: Sequence) -> int:
        """Push one chunk (``StreamTuple`` or ``(relation, row)`` items).

        Returns the number of tuples pushed.  An empty chunk is a no-op and
        does not count as a batch.  The boundary hooks run after the chunk
        is absorbed and counted; if the sampler raises, nothing is counted
        and no hook runs.
        """
        items = list(items)
        # Count before applying: a backend may legally consume its chunk
        # destructively, and the counters describe what was delivered.
        tuples = len(items)
        if not tuples:
            return 0
        self._apply(items)
        self.batches_ingested += 1
        self.tuples_ingested += tuples
        for hook in self._hooks:
            hook(items)
        return tuples

    def ingest(self, stream: Iterable[StreamTuple]) -> "BatchIngestor":
        """Cut ``stream`` into chunks and ingest them all; returns ``self``."""
        for chunk in chunk_stream(stream, self.chunk_size):
            self.ingest_batch(chunk)
        return self

    def add_boundary_hook(self, hook):
        """Register ``hook(items)`` to run at every chunk boundary.

        Chunk boundaries are exactly where the reservoir's uniformity
        guarantee holds, so this is the attachment point for epoch cuts
        (:class:`~repro.serve.SampleServer`) and timer checkpointing
        (:class:`~repro.ingest.checkpoint.PeriodicCheckpointer`).  Hooks
        run in registration order, ``items`` is the chunk, and a hook that
        raises aborts the ``ingest_batch`` call (the chunk itself is already
        absorbed).  Returns ``hook`` so it can be registered inline.
        """
        self._hooks.append(hook)
        return hook

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """The ingestor's complete resumable state: the sampler (pickled
        whole by :func:`~repro.core.backend.snapshot_backend`) plus the
        chunk counters, taken at the chunk boundary the
        caller stands on: ingestion runs on the caller's thread, so
        between two ``ingest_batch`` calls no chunk is in flight."""
        # "engine" is the checkpoint format's name for the counter record.
        return {
            "backend": snapshot_backend(self.sampler),
            "engine": {
                "chunk_size": self.chunk_size,
                "batches_ingested": self.batches_ingested,
                "tuples_ingested": self.tuples_ingested,
            },
        }

    @classmethod
    def from_snapshot(cls, state: dict) -> "BatchIngestor":
        """Rebuild an ingestor from a :meth:`snapshot_state` snapshot."""
        counters = state["engine"]
        ingestor = cls(
            restore_backend(state["backend"]), chunk_size=counters["chunk_size"]
        )
        ingestor.batches_ingested = counters["batches_ingested"]
        ingestor.tuples_ingested = counters["tuples_ingested"]
        return ingestor

    def save(self, path: str) -> None:
        """Write a checkpoint from which :meth:`restore` resumes bit for bit.

        Call at a chunk boundary — which is everywhere except inside an
        ``ingest_batch`` call — so the restored run re-chunks the remaining
        stream exactly as an uninterrupted run would.
        """
        CODEC.dump(path, "batch", self.snapshot_state())

    @classmethod
    def restore(cls, path: str) -> "BatchIngestor":
        """Rebuild a :meth:`save`d ingestor; the stream suffix continues
        exactly where the checkpoint left off (same reservoir, same RNG
        stream, same counters)."""
        return cls.from_snapshot(CODEC.load(path, expected_kind="batch")["state"])

    def statistics(self) -> dict:
        """Ingestion counters merged with the sampler's own statistics."""
        stats = {
            "batches_ingested": self.batches_ingested,
            "tuples_ingested": self.tuples_ingested,
            "chunk_size": self.chunk_size,
        }
        if hasattr(self.sampler, "statistics"):
            stats.update(self.sampler.statistics())
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchIngestor({type(self.sampler).__name__}, "
            f"chunk_size={self.chunk_size}, batches={self.batches_ingested})"
        )
