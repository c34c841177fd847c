"""Chi-square uniformity over the *surviving* universe (marked ``slow``).

The turnstile correctness claim: after deletions, the reservoir is a uniform
sample without replacement of the join results over the rows that *survive*
— evictions, rejection refills and the Beta re-anchor of the skip state must
not bias which survivors occupy the reservoir.  Each test replays the same
retraction-bearing stream under many independent seeds and chi-square-tests
the per-result inclusion counts against the uniform expectation, for the
per-tuple path, the chunked (run-segmented) path, the sharded merge, and the
sliding-window sampler over its window universe, alone and sharded.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    BatchIngestor,
    JoinQuery,
    ShardedIngestor,
    StreamTuple,
    TurnstileReservoirJoin,
    WindowedSampler,
    surviving_rows,
    turnstile_stream,
)
from repro.relational.database import Database
from repro.relational.join import join_results
from repro.stats.uniformity import uniformity_p_value

from tests.conftest import stat_trials

P_THRESHOLD = 0.002
TRIALS = stat_trials(300)

QUERY = JoinQuery.from_spec("two", {"R": ["a", "b"], "S": ["b", "c"]})
K = 5


def make_stream(seed: int, n: int = 160):
    rng = random.Random(seed)
    inserts = []
    for ts in range(1, n + 1):
        if rng.random() < 0.5:
            inserts.append(StreamTuple("R", (rng.randrange(14), rng.randrange(6)), ts))
        else:
            inserts.append(StreamTuple("S", (rng.randrange(6), rng.randrange(14)), ts))
    return turnstile_stream(
        inserts, random.Random(seed + 1),
        delete_fraction=0.3, tombstone_fraction=0.1,
    )


def universe_of(stream):
    database = Database(QUERY)
    for relation, rows in surviving_rows(stream).items():
        for row in rows:
            database.insert(relation, row)
    return join_results(QUERY, database)


STREAM = make_stream(97)
UNIVERSE = universe_of(STREAM)


def test_surviving_universe_is_nontrivial():
    assert len(UNIVERSE) > 4 * K  # the chi-square below actually selects


def test_pertuple_uniform_over_survivors():
    def run_one(seed):
        sampler = TurnstileReservoirJoin(QUERY, K, rng=random.Random(seed))
        sampler.process(STREAM)
        return sampler.sample

    p = uniformity_p_value(run_one, UNIVERSE, TRIALS, K)
    assert p > P_THRESHOLD, f"uniformity rejected: p={p:.5f}"


@pytest.mark.parametrize("chunk_size", [8, 32])
def test_chunked_uniform_over_survivors(chunk_size):
    def run_one(seed):
        sampler = TurnstileReservoirJoin(QUERY, K, rng=random.Random(seed))
        BatchIngestor(sampler, chunk_size=chunk_size).ingest(STREAM)
        return sampler.sample

    p = uniformity_p_value(run_one, UNIVERSE, TRIALS, K)
    assert p > P_THRESHOLD, f"uniformity rejected: p={p:.5f}"


def test_sharded_merge_uniform_over_survivors():
    def run_one(seed):
        ingestor = ShardedIngestor(
            QUERY, K, num_shards=3, chunk_size=24,
            factory=lambda shard, rng: TurnstileReservoirJoin(QUERY, K, rng=rng),
            rng=random.Random(seed),
        )
        ingestor.ingest_batch(STREAM)
        return ingestor.merged_sample(rng=random.Random(seed + 101))

    p = uniformity_p_value(run_one, UNIVERSE, TRIALS, K)
    assert p > P_THRESHOLD, f"uniformity rejected: p={p:.5f}"


@pytest.mark.parametrize("mode, num_shards", [("count", None), ("timestamp", 3)])
def test_windowed_uniform_over_window_universe(mode, num_shards):
    """A window alone, and timestamp windows merged across shards.

    Each shard's horizon follows the newest timestamp it was routed, so the
    sharded universe is the union of the shard-local window joins.
    """
    window = 64
    chunk_size = 16

    def run(k, seed):
        def windowed(rng):
            return WindowedSampler(QUERY, k, window=window, rng=rng, mode=mode)

        if num_shards is None:
            ingestor = BatchIngestor(windowed(random.Random(seed)), chunk_size=chunk_size)
        else:
            ingestor = ShardedIngestor(
                QUERY, k, num_shards=num_shards, chunk_size=chunk_size,
                factory=lambda shard, rng: windowed(rng),
                rng=random.Random(seed),
            )
        ingestor.ingest(STREAM)
        return ingestor

    probe = run(10_000, 0)
    samplers = [probe.sampler] if num_shards is None else probe.samplers
    universe = [
        result
        for sampler in samplers
        for result in join_results(QUERY, sampler.index.database)
    ]
    assert len(universe) > 2 * K

    def run_one(seed):
        ingestor = run(K, seed)
        if num_shards is None:
            return ingestor.sampler.sample
        return ingestor.merged_sample(rng=random.Random(seed + 101))

    p = uniformity_p_value(run_one, universe, TRIALS, K)
    assert p > P_THRESHOLD, f"uniformity rejected: p={p:.5f}"
