"""Figure 12: RSWP vs RS running time as the stream progresses (Section 6.3).

Paper setup: a 1/10-dense stream of 100,000 strings (1024 characters, edit
distance threshold 16), k = 1,000; cumulative time recorded after every 10%
of the stream.  RS must evaluate the edit distance on every item, so its time
grows linearly; RSWP matches RS until the reservoir fills and then flattens
out because skipped items are never examined.

Reproduction: a scaled-down stream (shorter strings, smaller threshold) with
the same 1/10 density; the reproduced shape is "RS linear, RSWP flattening
after the fill phase".
"""

from __future__ import annotations

import random
import time

from repro.core.batch_reservoir import BatchedPredicateReservoir
from repro.core.reservoir import ReservoirSampler
from repro.core.skippable import ListBatch
from repro.workloads.strings import EditDistancePredicate, string_stream

from harness import format_series
from _common import SEED

N_ITEMS = 4000
DENSITY = 0.1
SAMPLE_SIZE = 50
PARTS = 10


def _run_rs(items, predicate, k):
    """Classic reservoir: evaluate the predicate on every item."""
    sampler = ReservoirSampler(k, random.Random(SEED))
    checkpoints = []
    elapsed = 0.0
    chunk = max(1, len(items) // PARTS)
    for start in range(0, len(items), chunk):
        begin = time.perf_counter()
        for item in items[start:start + chunk]:
            if predicate(item):
                sampler.process(item)
        elapsed += time.perf_counter() - begin
        checkpoints.append(elapsed)
    return checkpoints[:PARTS]


def _run_rswp(items, predicate, k):
    """Predicate-aware reservoir: skipping avoids most predicate evaluations."""
    sampler = BatchedPredicateReservoir(k, predicate=predicate, rng=random.Random(SEED))
    checkpoints = []
    elapsed = 0.0
    chunk = max(1, len(items) // PARTS)
    for start in range(0, len(items), chunk):
        begin = time.perf_counter()
        sampler.process_batch(ListBatch(items[start:start + chunk]))
        elapsed += time.perf_counter() - begin
        checkpoints.append(elapsed)
    return checkpoints[:PARTS]


def figure12_series(n_items: int = N_ITEMS):
    rng = random.Random(SEED + 12)
    items, query_string, _ = string_stream(n_items, DENSITY, rng)
    threshold = 8
    rs_times = _run_rs(items, EditDistancePredicate(query_string, threshold), SAMPLE_SIZE)
    rswp_times = _run_rswp(items, EditDistancePredicate(query_string, threshold), SAMPLE_SIZE)
    fractions = [round((index + 1) / PARTS, 1) for index in range(PARTS)]
    return fractions, {"RS_seconds": rs_times, "RSWP_seconds": rswp_times}


def test_rs_progress(benchmark):
    rng = random.Random(SEED + 12)
    items, query_string, _ = string_stream(1000, DENSITY, rng)
    benchmark.pedantic(
        lambda: _run_rs(items, EditDistancePredicate(query_string, 8), SAMPLE_SIZE),
        rounds=1,
        iterations=1,
    )


def test_rswp_progress(benchmark):
    rng = random.Random(SEED + 12)
    items, query_string, _ = string_stream(1000, DENSITY, rng)
    benchmark.pedantic(
        lambda: _run_rswp(items, EditDistancePredicate(query_string, 8), SAMPLE_SIZE),
        rounds=1,
        iterations=1,
    )


def main() -> None:
    fractions, series = figure12_series()
    print(
        format_series(
            series, fractions, x_label="stream_fraction",
            title="Figure 12 — RSWP vs RS cumulative time (1/10-dense string stream)",
        )
    )


if __name__ == "__main__":
    main()
