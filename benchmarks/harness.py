"""The experiment harness behind the Section 6 reproductions.

Every figure/table of the paper's evaluation maps to a script in
``benchmarks/``; those scripts delegate the mechanical parts — timing a
sampler over a stream, collecting progress checkpoints, measuring per-insert
update times, printing the result — to this module so that all experiments
measure and report things the same way.

The paper reports its results as figures; a terminal reproduction prints the
same rows/series as aligned text tables, so the shape of each experiment
(who wins, by what factor, where the crossover is) can be read directly off
the output.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.ingest.batch import DEFAULT_CHUNK_SIZE, BatchIngestor
from repro.relational.stream import StreamTuple, chunk_stream
from repro.stats.memory import sampler_memory_bytes


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


def timed(run: Callable[[], object]) -> float:
    """Wall seconds of one ``run()``, with the garbage collector paused."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        run()
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_with_timeout(
    name: str,
    sampler,
    stream: Sequence[StreamTuple],
    timeout_seconds: Optional[float] = None,
) -> Optional[RunResult]:
    """Feed ``stream`` to ``sampler`` tuple by tuple and time the whole run.

    Past a ``timeout_seconds`` budget the run aborts and returns ``None``.
    This mirrors the paper's 12-hour timeout (scaled down): baselines that
    cannot finish within the budget are reported as "did not finish".
    """
    budget = math.inf if timeout_seconds is None else timeout_seconds
    start = time.perf_counter()
    processed = 0
    for item in stream:
        sampler.insert(item.relation, item.row)
        processed += 1
        if processed % 64 == 0 and time.perf_counter() - start > budget:
            return None
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        return None
    return RunResult(name, elapsed, processed, dict(sampler.statistics()))


def run_sampler_batched(
    name: str,
    sampler,
    stream: Sequence[StreamTuple],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> RunResult:
    """Feed ``stream`` to ``sampler`` through the batched ingestion fast path.

    The counterpart of :func:`run_with_timeout` for the batched mode: the
    stream is chunked outside the timed region's inner loop by a
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
    for chunk in chunk_stream(stream, chunk_size):
        start = time.perf_counter()
        ingestor.ingest_batch(chunk)
        amortised = (time.perf_counter() - start) / len(chunk)
        latencies.extend([amortised] * len(chunk))
    return latencies


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
            points.append(
                ProgressPoint(
                    fraction=position / total,
                    tuples_processed=position,
                    elapsed_seconds=elapsed,
                    memory_bytes=sampler_memory_bytes(sampler) if measure_memory else 0,
                    simulated_stream_length=int(
                        sampler.statistics().get("simulated_stream_length", 0)
                    ),
                )
            )
    return points


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


def format_value(value: object) -> str:
    """Human-friendly rendering of a cell value."""
    if isinstance(value, float):
        if value == float("inf"):
            return "DNF"
        if value != 0 and (abs(value) >= 1e6 or abs(value) < 1e-3):
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render a list of row dicts as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    table = [[format_value(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[index]) for line in table))
        for index, column in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for line in table:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Sequence[float]],
    x_values: Sequence[object],
    x_label: str = "x",
    title: Optional[str] = None,
) -> str:
    """Render several named series over shared x values as a table."""
    rows: List[Dict[str, object]] = []
    for index, x_value in enumerate(x_values):
        row: Dict[str, object] = {x_label: x_value}
        for name, values in series.items():
            row[name] = values[index] if index < len(values) else ""
        rows.append(row)
    return format_table(rows, columns=[x_label, *series.keys()], title=title)
