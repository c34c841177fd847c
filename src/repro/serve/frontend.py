"""Asyncio front end for :class:`~repro.serve.server.SampleServer`.

Runs the writer as the ingestion loop (a producer feeding a bounded chunk
queue, backpressure included) and every reader as a task drawing
snapshot-isolated samples with a bounded-staleness epoch policy: a reader
with ``max_staleness=s`` accepts the cached epoch cut as long as it is at
most ``s`` boundaries behind the live epoch, so readers that tolerate
slight staleness never pay (or wait on) a snapshot capture.  Per-reader
read counts and latencies, the writer's wall clock and the queue's high
water mark are all surfaced through :meth:`ServerFrontend.statistics` —
the figures ``benchmarks/bench_serving.py`` reports.

Cooperative concurrency: the writer yields to the loop after every chunk,
so readers interleave at chunk granularity — the asyncio analogue of the
thread-based stress test, on one event loop.  The underlying server is
thread-safe regardless; this front end only adds scheduling.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from .server import SampleServer

#: Default bound on the writer's chunk queue.
DEFAULT_BUFFER_CHUNKS = 8

_DONE = object()  # queue sentinel: stream exhausted


def quantile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile of ``values`` by nearest-rank on the sorted list
    (``q`` in [0, 1]): the smallest value with at least ``q`` of the values
    at or below it.  ``None`` for an empty sequence."""
    if not values:
        return None
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be within [0, 1]")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class ReaderTask:
    """One reader's configuration and accumulated measurements."""

    name: str
    k: Optional[int] = None
    max_staleness: int = 0
    min_reads: int = 1
    think_seconds: float = 0.0
    reads: int = 0
    last_epoch: int = -1
    last_sample_size: int = -1
    latencies: List[float] = field(default_factory=list)

    def statistics(self) -> Dict[str, object]:
        return {
            "reads": self.reads,
            "last_epoch": self.last_epoch,
            "last_sample_size": self.last_sample_size,
            "max_staleness": self.max_staleness,
            "p50_read_latency_ms": _ms(quantile(self.latencies, 0.50)),
            "p99_read_latency_ms": _ms(quantile(self.latencies, 0.99)),
        }


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else round(seconds * 1e3, 4)


class ServerFrontend:
    """Writer-as-ingestion-loop plus reader tasks over one event loop.

    Parameters
    ----------
    server:
        The :class:`SampleServer` to drive and read.
    buffer_chunks:
        Bound of the writer's chunk queue — the backpressure knob between
        whatever produces chunks and the ingestion loop.
    """

    def __init__(
        self, server: SampleServer, buffer_chunks: int = DEFAULT_BUFFER_CHUNKS
    ) -> None:
        if buffer_chunks <= 0:
            raise ValueError("buffer_chunks must be positive")
        self.server = server
        self.buffer_chunks = buffer_chunks
        self.readers: Dict[str, ReaderTask] = {}
        self.max_queue_depth = 0
        self.writer_wall_seconds = 0.0
        self.chunks_written = 0

    def add_reader(
        self,
        name: str,
        k: Optional[int] = None,
        max_staleness: int = 0,
        min_reads: int = 1,
        think_seconds: float = 0.0,
    ) -> "ServerFrontend":
        """Register one reader task; returns ``self`` for chaining.

        The reader draws ``sample(k)`` in a loop (pausing ``think_seconds``
        between reads) and exits once the writer has finished, it has
        observed the final epoch, and it has read at least ``min_reads``
        times.
        """
        if name in self.readers:
            raise ValueError(f"reader {name!r} already exists")
        if max_staleness < 0:
            raise ValueError("max_staleness must be non-negative")
        if min_reads < 1:
            raise ValueError("min_reads must be positive")
        self.readers[name] = ReaderTask(
            name,
            k=k,
            max_staleness=max_staleness,
            min_reads=min_reads,
            think_seconds=think_seconds,
        )
        return self

    # ------------------------------------------------------------------ #
    # The event loop
    # ------------------------------------------------------------------ #
    async def run_async(self, chunks: Iterable[Sequence]) -> Dict[str, object]:
        """Ingest every chunk while the readers run; returns statistics."""
        queue: "asyncio.Queue" = asyncio.Queue(maxsize=self.buffer_chunks)
        writer_done = asyncio.Event()

        async def produce() -> None:
            for chunk in chunks:
                await queue.put(chunk)
                await asyncio.sleep(0)
            await queue.put(_DONE)

        async def write() -> None:
            start = time.perf_counter()
            try:
                while True:
                    depth = queue.qsize()
                    if depth > self.max_queue_depth:
                        self.max_queue_depth = depth
                    chunk = await queue.get()
                    if chunk is _DONE:
                        break
                    self.server.ingest_batch(chunk)
                    self.chunks_written += 1
                    # Hand the loop to the readers at every chunk boundary.
                    await asyncio.sleep(0)
                self.server.drain()
            finally:
                self.writer_wall_seconds += time.perf_counter() - start
                writer_done.set()

        async def read(task: ReaderTask) -> None:
            while True:
                start = time.perf_counter()
                snap = self.server.snapshot(max_staleness=task.max_staleness)
                sample = snap.sample(task.k)
                task.latencies.append(time.perf_counter() - start)
                task.reads += 1
                task.last_epoch = snap.epoch
                task.last_sample_size = len(sample)
                self.server.note_read()
                if (
                    writer_done.is_set()
                    and task.reads >= task.min_reads
                    and snap.epoch >= self.server.epoch
                ):
                    return
                await asyncio.sleep(task.think_seconds)

        await asyncio.gather(
            produce(), write(), *(read(task) for task in self.readers.values())
        )
        return self.statistics()

    def run(self, chunks: Iterable[Sequence]) -> Dict[str, object]:
        """Synchronous wrapper over :meth:`run_async`."""
        return asyncio.run(self.run_async(chunks))

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def statistics(self) -> Dict[str, object]:
        """Front-end measurements merged over the server's counters."""
        latencies = [
            latency for task in self.readers.values() for latency in task.latencies
        ]
        stats = self.server.statistics()
        stats.update(
            {
                "reader_count": len(self.readers),
                "reads_total": sum(task.reads for task in self.readers.values()),
                "p50_read_latency_ms": _ms(quantile(latencies, 0.50)),
                "p99_read_latency_ms": _ms(quantile(latencies, 0.99)),
                "writer_wall_seconds": round(self.writer_wall_seconds, 4),
                "chunks_written": self.chunks_written,
                "max_queue_depth": self.max_queue_depth,
                "readers": {
                    name: task.statistics() for name, task in self.readers.items()
                },
            }
        )
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServerFrontend(readers={len(self.readers)}, "
            f"buffer={self.buffer_chunks}, chunks={self.chunks_written})"
        )


__all__ = ["DEFAULT_BUFFER_CHUNKS", "ReaderTask", "ServerFrontend", "quantile"]
