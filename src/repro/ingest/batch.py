"""The :class:`BatchIngestor` driver and chunking helpers.

See the package docstring for the design rationale.  The ingestor is the
simplest policy over the shared :class:`~repro.ingest.engine
.IngestionEngine`: one lane, no routing.  It is sampler agnostic — the lane's
apply callable comes from :func:`repro.core.backend.chunk_apply`, so anything
conforming to the :class:`~repro.core.backend.SamplerBackend` protocol gets
its best path probed once (``insert_batch`` fast path when present, validated
per-tuple ``insert`` fallback otherwise) and the same harness code can run
both kinds.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.backend import chunk_apply, restore_backend, snapshot_backend
from ..relational.stream import StreamTuple, chunk_stream
from .checkpoint import CODEC
from .engine import DEFAULT_CHUNK_SIZE, EngineLane, IngestionEngine

#: Alias of :func:`repro.relational.stream.chunk_stream`, the canonical
#: chunker shared by every ingestion mode (kept under its historical name).
chunked = chunk_stream


class BatchIngestor:
    """Drive a sampler with chunks of stream tuples.

    Parameters
    ----------
    sampler:
        Any sampler with an ``insert_batch(items)`` method, or — as a
        fallback — a per-tuple ``insert(relation, row)`` method.
    chunk_size:
        How many stream tuples to accumulate per ``insert_batch`` call.
        The reservoir is guaranteed uniform at every chunk boundary.

    Attributes
    ----------
    batches_ingested / tuples_ingested:
        How many chunks / stream tuples have been pushed so far (the
        underlying engine's counters).
    """

    def __init__(self, sampler, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        self.sampler = sampler
        apply, self._mode = chunk_apply(sampler)
        self._engine = IngestionEngine(
            [EngineLane(type(sampler).__name__, apply)], chunk_size=chunk_size
        )

    @property
    def chunk_size(self) -> int:
        return self._engine.chunk_size

    @property
    def batches_ingested(self) -> int:
        return self._engine.batches_ingested

    @property
    def tuples_ingested(self) -> int:
        return self._engine.tuples_ingested

    @property
    def uses_fast_path(self) -> bool:
        """Whether the sampler exposes a batched (or ingestor) fast path."""
        return self._mode != "insert"

    def ingest_batch(self, items: Sequence) -> int:
        """Push one chunk (``StreamTuple`` or ``(relation, row)`` items).

        Returns the number of tuples pushed.  An empty chunk is a no-op and
        does not count as a batch.
        """
        return self._engine.ingest_batch(items)

    def ingest(self, stream: Iterable[StreamTuple]) -> "BatchIngestor":
        """Cut ``stream`` into chunks and ingest them all; returns ``self``."""
        self._engine.ingest(stream)
        return self

    def add_boundary_hook(self, hook):
        """Register ``hook(items, parts)`` to run at every chunk boundary.

        Chunk boundaries are exactly where the reservoir's uniformity
        guarantee holds, so this is the attachment point for epoch cuts
        (:class:`~repro.serve.SampleServer`) and timer checkpointing
        (:class:`~repro.ingest.checkpoint.PeriodicCheckpointer`).
        """
        return self._engine.add_boundary_hook(hook)

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """The ingestor's complete resumable state: the sampler (captured
        via the :func:`~repro.core.backend.snapshot_backend` capability
        probe) plus the engine accounting.  Also the ingestor's own
        :class:`~repro.core.backend.SamplerBackend` snapshot capability, so
        a ``BatchIngestor`` behind an
        :class:`~repro.ingest.pipeline.AsyncIngestor` checkpoints along
        with its host."""
        return {
            "backend": snapshot_backend(self.sampler),
            "engine": self._engine.snapshot_state(),
        }

    @classmethod
    def from_snapshot(cls, state: dict) -> "BatchIngestor":
        """Rebuild an ingestor from a :meth:`snapshot_state` snapshot."""
        ingestor = cls(
            restore_backend(state["backend"]),
            chunk_size=state["engine"]["chunk_size"],
        )
        ingestor._engine.restore_state(state["engine"])
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
            "fast_path": self.uses_fast_path,
        }
        if hasattr(self.sampler, "statistics"):
            stats.update(self.sampler.statistics())
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchIngestor({type(self.sampler).__name__}, "
            f"chunk_size={self.chunk_size}, batches={self.batches_ingested})"
        )
