"""Chi-square uniformity over the *surviving* universe (marked ``slow``).

The turnstile correctness claim: after deletions, the reservoir is a uniform
sample without replacement of the join results over the rows that *survive*
— evictions and the order-statistic refill must not bias which survivors
occupy the reservoir.  Each test replays the same retraction-bearing stream
under many independent seeds and chi-square-tests the per-result inclusion
counts against the uniform expectation, for the per-tuple path, the chunked
(run-segmented) path, the sharded merge, and the sliding-window sampler over
its window universe, alone and sharded.  Three more pin the re-anchor: the
``w`` it leaves is the ``k``-th smallest of ``|Q'|`` uniform keys
(Kolmogorov–Smirnov against ``Beta(k, |Q'| - k + 1)``), delete runs that
evict nothing do not bias later inserts, and a refill that runs out of
candidates hands over to the fill phase unbiased.
"""

from __future__ import annotations

import math
import random

import pytest
from scipy import stats

from repro import (
    BatchIngestor,
    JoinQuery,
    ShardedIngestor,
    StreamDelete,
    StreamTuple,
    TurnstileReservoirJoin,
    WindowedSampler,
    turnstile_stream,
)
from repro.relational.database import Database
from repro.relational.join import count_results, join_results

from tests.conftest import stat_trials
from tests.oracles import result_key, surviving_ground_truth, uniformity_p_value

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


STREAM = make_stream(97)
UNIVERSE = surviving_ground_truth(QUERY, STREAM)


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


# ---------------------------------------------------------------------- #
# The count-free re-anchor
# ---------------------------------------------------------------------- #
CHAIN3 = JoinQuery.from_spec("chain3", {"R": ["a", "b"], "S": ["b", "c"], "T": ["c", "d"]})


def test_reanchored_w_is_the_kth_smallest_key():
    """After delete runs that evict and refill, ``w`` is distributed as the
    ``k``-th smallest of ``|Q'|`` i.i.d. uniform keys, ``|Q'|`` from the
    ``count_results`` oracle."""
    k = 40
    rng = random.Random(7)
    inserts, seen = [], set()
    while len(inserts) < 160:
        relation = rng.choice(CHAIN3.relation_names)
        if relation == "R":
            row = (rng.randrange(20), rng.randrange(5))
        elif relation == "S":
            row = (rng.randrange(5), rng.randrange(5))
        else:
            row = (rng.randrange(5), rng.randrange(20))
        if (relation, row) not in seen:
            seen.add((relation, row))
            inserts.append(StreamTuple(relation, row))
    victims = [StreamDelete(item.relation, item.row) for item in rng.sample(inserts, 30)]
    database = Database(CHAIN3)
    for item in inserts:
        database.insert(item.relation, item.row)
    for item in victims:
        database.delete(item.relation, item.row)
    population = count_results(CHAIN3, database)
    assert population > 20 * k

    ws, refills = [], 0
    for seed in range(stat_trials(600)):
        sampler = TurnstileReservoirJoin(CHAIN3, k, rng=random.Random(seed))
        for start in range(0, len(inserts), 30):
            sampler.ingest_batch(inserts[start:start + 30])
        for start in range(0, len(victims), 6):
            sampler.delete_batch(victims[start:start + 6])
        ws.append(sampler.reservoir.w)
        refills += sampler.refills
    assert refills > len(ws)  # the refill path ran, not only d = 0
    p = stats.kstest(ws, "beta", args=(k, population - k + 1)).pvalue
    assert p > P_THRESHOLD, f"w is not Beta(k, |Q'| - k + 1): p={p:.5f}"


def test_evictionless_delete_runs_do_not_bias_later_inserts():
    """Delete runs that kill no sampled result change nothing (no draw, same
    ``w`` and skip); inclusion stays uniform after further inserts."""
    k = 6
    hub = [StreamTuple("S", (b, c)) for b in range(6) for c in range(3)]
    arms = [StreamTuple("R", (a, b)) for a in range(10) for b in range(6)]
    late = [StreamTuple("R", (a, b)) for a in range(10, 20) for b in range(6)]
    order = random.Random(3)
    order.shuffle(arms)
    order.shuffle(late)
    # Each retraction is its own run and kills 3 of about 180 results.
    victims = [StreamDelete(item.relation, item.row) for item in arms[:15]]
    stream = hub + arms
    for victim, insert in zip(victims, late):
        stream += [victim, insert]
    stream += late[len(victims):]
    universe = surviving_ground_truth(QUERY, stream)

    quiet_runs = []

    def run_one(seed):
        sampler = TurnstileReservoirJoin(QUERY, k, rng=random.Random(seed))
        for item in stream:
            if isinstance(item, StreamDelete):
                before = (sampler.evictions, sampler.reservoir.w, sampler._rng.getstate())
                sampler.delete(item.relation, item.row)
                if sampler.evictions == before[0]:
                    assert (sampler.reservoir.w, sampler._rng.getstate()) == before[1:]
                    quiet_runs.append(1)
                else:
                    quiet_runs.append(0)
            else:
                sampler.insert(item.relation, item.row)
        return sampler.sample

    p = uniformity_p_value(run_one, universe, TRIALS, k)
    assert sum(quiet_runs) > 0.75 * len(quiet_runs)
    assert p > P_THRESHOLD, f"uniformity rejected: p={p:.5f}"


def test_exhausted_refill_reenters_the_fill_phase():
    """Deletes push the surviving join below ``k``: the refill runs out of
    candidates, the reservoir holds every survivor with ``w = inf``, and
    later inserts fill it uniformly."""
    k = 10
    first = [StreamTuple("R", (a, 0)) for a in range(6)] + [
        StreamTuple("S", (0, c)) for c in range(5)
    ]
    # Five of the six R rows die, leaving 5 < k results.
    victims = [StreamDelete("R", (a, 0)) for a in range(1, 6)]
    later = [StreamTuple("R", (a, 0)) for a in range(10, 16)] + [
        StreamTuple("S", (0, c)) for c in range(5, 8)
    ]
    survivors = surviving_ground_truth(QUERY, first + victims)
    assert len(survivors) < k
    universe = surviving_ground_truth(QUERY, first + victims + later)
    assert len(universe) > 5 * k

    def run_one(seed):
        sampler = TurnstileReservoirJoin(QUERY, k, rng=random.Random(seed))
        sampler.ingest_batch(first)
        assert not math.isinf(sampler.reservoir.w)
        sampler.delete_batch(victims)
        assert math.isinf(sampler.reservoir.w)
        assert sorted(map(result_key, sampler.sample)) == sorted(map(result_key, survivors))
        for start in range(0, len(later), 4):
            sampler.ingest_batch(later[start:start + 4])
        return sampler.sample

    p = uniformity_p_value(run_one, universe, TRIALS, k)
    assert p > P_THRESHOLD, f"uniformity rejected: p={p:.5f}"
