"""Figure 13: RSWP vs RS running time as a function of stream density.

Paper setup: 11 string streams of identical length whose density of real
items ranges from 0.0 to 1.0.  RS's time is independent of density (it always
evaluates every item); RSWP matches RS at density 0 (nothing can be skipped)
and gets monotonically faster as the stream becomes denser, reaching a 17.7x
advantage at density 1.0.

Reproduction: the same sweep at reduced string length / stream size.
"""

from __future__ import annotations

import random

from repro.core.batch_reservoir import BatchedPredicateReservoir
from repro.core.reservoir import ReservoirSampler
from repro.core.skippable import ListBatch
from repro.workloads.strings import EditDistancePredicate, string_stream

from harness import format_series, timed
from _common import SEED

N_ITEMS = 2500
SAMPLE_SIZE = 50
DENSITIES = tuple(round(0.1 * step, 1) for step in range(0, 11))


def _time_rs(items, predicate, k) -> float:
    sampler = ReservoirSampler(k, random.Random(SEED))

    def run():
        for item in items:
            if predicate(item):
                sampler.process(item)

    return timed(run)


def _time_rswp(items, predicate, k) -> float:
    sampler = BatchedPredicateReservoir(k, predicate=predicate, rng=random.Random(SEED))
    return timed(lambda: sampler.process_batch(ListBatch(items)))


def figure13_series(n_items: int = N_ITEMS, densities=DENSITIES):
    rs_times = []
    rswp_times = []
    evaluations = []
    for density in densities:
        rng = random.Random(SEED + 13)
        items, query_string, _ = string_stream(n_items, density, rng)
        rs_times.append(_time_rs(items, EditDistancePredicate(query_string, 8), SAMPLE_SIZE))
        rswp_predicate = EditDistancePredicate(query_string, 8)
        rswp_times.append(_time_rswp(items, rswp_predicate, SAMPLE_SIZE))
        evaluations.append(rswp_predicate.evaluations)
    return list(densities), {
        "RS_seconds": rs_times,
        "RSWP_seconds": rswp_times,
        "RSWP_predicate_evaluations": evaluations,
    }


def test_density_zero(benchmark):
    rng = random.Random(SEED + 13)
    items, query_string, _ = string_stream(800, 0.0, rng)
    benchmark.pedantic(
        lambda: _time_rswp(items, EditDistancePredicate(query_string, 8), SAMPLE_SIZE),
        rounds=1,
        iterations=1,
    )


def test_density_one(benchmark):
    rng = random.Random(SEED + 13)
    items, query_string, _ = string_stream(800, 1.0, rng)
    benchmark.pedantic(
        lambda: _time_rswp(items, EditDistancePredicate(query_string, 8), SAMPLE_SIZE),
        rounds=1,
        iterations=1,
    )


def main() -> None:
    densities, series = figure13_series()
    print(
        format_series(
            series, densities, x_label="density",
            title="Figure 13 — RSWP vs RS running time vs stream density",
        )
    )


if __name__ == "__main__":
    main()
