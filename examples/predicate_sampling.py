"""Reservoir sampling with an expensive predicate (Section 3 on its own).

The predicate-aware reservoir sampler is useful well beyond joins: whenever
items must pass an *expensive* test (here: edit distance to a query string)
and only qualifying items should be sampled, the skip mechanism avoids
evaluating the test on items that could never enter the reservoir anyway.

The example compares the classic approach (evaluate the predicate on every
item, then classic reservoir) against Algorithm 1 on the paper's Section 6.3
workload, reporting how many predicate evaluations each needed.

Run it with:  python examples/predicate_sampling.py
"""

from __future__ import annotations

import random
import time

from repro import BatchedPredicateReservoir, ReservoirSampler
from repro.core.skippable import ListBatch
from repro.workloads.strings import EditDistancePredicate, string_stream


def main() -> None:
    rng = random.Random(3)
    n_items, density, k, threshold = 6000, 0.1, 64, 8
    items, query_string, _ = string_stream(n_items, density, rng, threshold=threshold)
    print(
        f"stream of {n_items} strings, {density:.0%} within edit distance "
        f"{threshold} of the query string; maintaining k={k} samples"
    )

    # Classic reservoir (RS): the predicate runs on every single item.
    rs_predicate = EditDistancePredicate(query_string, threshold)
    classic = ReservoirSampler(k, rng=random.Random(1))
    start = time.perf_counter()
    for item in items:
        if rs_predicate(item):
            classic.process(item)
    rs_seconds = time.perf_counter() - start

    # Predicate-aware reservoir (RSWP, Algorithm 1): skipped items are never
    # even looked at, so the predicate runs only on the examined positions.
    rswp_predicate = EditDistancePredicate(query_string, threshold)
    predicate_sampler = BatchedPredicateReservoir(k, predicate=rswp_predicate, rng=random.Random(1))
    start = time.perf_counter()
    predicate_sampler.process_batch(ListBatch(items))
    rswp_seconds = time.perf_counter() - start

    print(f"\nclassic RS : {rs_seconds:.3f}s, {rs_predicate.evaluations} predicate evaluations")
    print(f"RSWP       : {rswp_seconds:.3f}s, {rswp_predicate.evaluations} predicate evaluations")
    print(f"speed-up   : {rs_seconds / max(rswp_seconds, 1e-9):.1f}x")
    print(f"\nboth reservoirs hold {len(classic.sample)} and {len(predicate_sampler.sample)} "
          "qualifying strings respectively (uniform over all qualifying items).")


if __name__ == "__main__":
    main()
