"""The experiment harness behind the Section 6 reproductions.

Every figure/table of the paper's evaluation maps to a function in
``benchmarks/``; those functions delegate the mechanical parts — timing a
sampler over a stream, collecting progress checkpoints, measuring per-insert
update times — to this module so that all experiments measure things the
same way.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..ingest.batch import DEFAULT_CHUNK_SIZE, BatchIngestor, chunked
from ..relational.stream import StreamTuple
from ..stats.memory import sampler_memory_bytes


@dataclass
class RunResult:
    """Outcome of running one sampler over one stream."""

    name: str
    elapsed_seconds: float
    tuples_processed: int
    statistics: Dict[str, object] = field(default_factory=dict)

    def row(self) -> Dict[str, object]:
        """Flatten into a reporting row."""
        row: Dict[str, object] = {
            "algorithm": self.name,
            "seconds": round(self.elapsed_seconds, 4),
            "tuples": self.tuples_processed,
        }
        row.update(self.statistics)
        return row


@dataclass
class ProgressPoint:
    """State of a sampler after a fraction of the stream has been processed."""

    fraction: float
    tuples_processed: int
    elapsed_seconds: float
    memory_bytes: int
    simulated_stream_length: int


def run_sampler(name: str, sampler, stream: Sequence[StreamTuple]) -> RunResult:
    """Feed ``stream`` to ``sampler`` and time the whole run."""
    start = time.perf_counter()
    for item in stream:
        sampler.insert(item.relation, item.row)
    elapsed = time.perf_counter() - start
    statistics = sampler.statistics() if hasattr(sampler, "statistics") else {}
    return RunResult(name, elapsed, len(stream), dict(statistics))


def run_sampler_batched(
    name: str,
    sampler,
    stream: Sequence[StreamTuple],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> RunResult:
    """Feed ``stream`` to ``sampler`` through the batched ingestion fast path.

    The counterpart of :func:`run_sampler` for the batched mode: the stream
    is chunked outside the timed region's inner loop by a
    :class:`~repro.ingest.batch.BatchIngestor`, so the measured time is the
    end-to-end batched ingestion cost (chunking included).
    """
    ingestor = BatchIngestor(sampler, chunk_size=chunk_size)
    start = time.perf_counter()
    ingestor.ingest(stream)
    elapsed = time.perf_counter() - start
    return RunResult(name, elapsed, len(stream), ingestor.statistics())


def per_chunk_times(
    sampler,
    stream: Sequence[StreamTuple],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> List[float]:
    """Amortised per-tuple latencies of batched ingestion (Figure 6, batched).

    Each chunk is timed as a whole and its cost spread evenly over its
    tuples, which is the honest per-tuple figure for a batched pipeline.
    """
    ingestor = BatchIngestor(sampler, chunk_size=chunk_size)
    latencies: List[float] = []
    for chunk in chunked(stream, chunk_size):
        start = time.perf_counter()
        ingestor.ingest_batch(chunk)
        amortised = (time.perf_counter() - start) / len(chunk)
        latencies.extend([amortised] * len(chunk))
    return latencies


def run_with_timeout(
    name: str,
    sampler,
    stream: Sequence[StreamTuple],
    timeout_seconds: float,
) -> Optional[RunResult]:
    """Like :func:`run_sampler` but abort (returning ``None``) past a time budget.

    This mirrors the paper's 12-hour timeout (scaled down): baselines that
    cannot finish within the budget are reported as "did not finish".
    """
    start = time.perf_counter()
    processed = 0
    for item in stream:
        sampler.insert(item.relation, item.row)
        processed += 1
        if processed % 64 == 0 and time.perf_counter() - start > timeout_seconds:
            return None
    elapsed = time.perf_counter() - start
    if elapsed > timeout_seconds:
        return None
    statistics = sampler.statistics() if hasattr(sampler, "statistics") else {}
    return RunResult(name, elapsed, processed, dict(statistics))


def per_insert_times(sampler, stream: Sequence[StreamTuple]) -> List[float]:
    """Per-tuple update latencies in seconds (Figure 6)."""
    latencies: List[float] = []
    for item in stream:
        start = time.perf_counter()
        sampler.insert(item.relation, item.row)
        latencies.append(time.perf_counter() - start)
    return latencies


def progress_run(
    sampler,
    stream: Sequence[StreamTuple],
    parts: int = 10,
    measure_memory: bool = True,
) -> List[ProgressPoint]:
    """Run a sampler recording cumulative time/memory every ``1/parts`` of input.

    Used by Figures 7, 11 and 12 ("after every 10% of the input").  Memory is
    measured outside the timed region so it does not distort the timings.
    """
    points: List[ProgressPoint] = []
    total = len(stream)
    if total == 0:
        return points
    checkpoints = {max(1, (total * part) // parts) for part in range(1, parts + 1)}
    elapsed = 0.0
    for position, item in enumerate(stream, start=1):
        start = time.perf_counter()
        sampler.insert(item.relation, item.row)
        elapsed += time.perf_counter() - start
        if position in checkpoints:
            memory = sampler_memory_bytes(sampler) if measure_memory else 0
            simulated = 0
            if hasattr(sampler, "statistics"):
                simulated = int(sampler.statistics().get("simulated_stream_length", 0))
            points.append(
                ProgressPoint(
                    fraction=position / total,
                    tuples_processed=position,
                    elapsed_seconds=elapsed,
                    memory_bytes=memory,
                    simulated_stream_length=simulated,
                )
            )
    return points


def compare_samplers(
    factories: Dict[str, Callable[[], object]],
    stream: Sequence[StreamTuple],
    timeout_seconds: Optional[float] = None,
) -> List[RunResult]:
    """Run several samplers (built fresh from factories) over the same stream."""
    results: List[RunResult] = []
    for name, factory in factories.items():
        sampler = factory()
        if timeout_seconds is None:
            results.append(run_sampler(name, sampler, stream))
        else:
            outcome = run_with_timeout(name, sampler, stream, timeout_seconds)
            if outcome is None:
                results.append(RunResult(name, float("inf"), len(stream), {"timed_out": True}))
            else:
                results.append(outcome)
    return results


def measure_seconds(run: Callable[[], object]) -> tuple:
    """Run ``run()`` and return ``(result, wall_seconds)``.

    The smallest shared timing idiom: the workload gauntlet times one
    representative run per matrix cell with it, and the benchmark scripts
    use it wherever a run's *result* is needed alongside its wall clock
    (``timed``-style helpers discard the result).
    """
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile used for the update-time distribution: the
    smallest value with at least ``fraction`` of the values at or below it."""
    if not values:
        raise ValueError("no values")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def speedup(baseline_seconds: float, improved_seconds: float) -> float:
    """How many times faster the improved run is than the baseline."""
    if improved_seconds <= 0:
        return float("inf")
    return baseline_seconds / improved_seconds
