"""Chi-square uniformity tests for every sampler (marked ``slow``).

The paper's headline correctness claim: at every prefix of the stream, the
reservoir is a uniform sample *without replacement* of the join results (or
plain items) seen so far.  Each test runs a sampler many times with
independent seeds, counts per-result inclusion frequencies, and performs a
chi-square goodness-of-fit test against the uniform expectation via
``tests/oracles.py``.  All tests are seeded and deterministic: a
failure is a real distributional bug, not flakiness.

The significance threshold is 0.002 — small enough that a correctly uniform
sampler passes the full suite reliably, large enough that systematic bias
(e.g. an off-by-one in the skip arithmetic) is caught immediately.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    BatchedPredicateReservoir,
    BatchIngestor,
    CyclicReservoirJoin,
    ReservoirJoin,
    ReservoirSampler,
)
from repro.core.skippable import ListBatch

from tests.conftest import make_edges, make_graph_stream, stat_trials
from tests.oracles import (
    chi_square_uniformity,
    ground_truth,
    inclusion_counts,
    uniformity_p_value,
)

P_THRESHOLD = 0.002
TRIALS = stat_trials(300)


def item_universe(n):
    """A small universe of distinguishable items as mapping-shaped results."""
    return [{"value": i} for i in range(n)]


def assert_uniform_items(run_one, universe, k, trials=TRIALS):
    """Chi-square-assert that ``run_one(seed)`` samples ``universe`` uniformly."""
    samples = [run_one(seed) for seed in range(trials)]
    counts = inclusion_counts(samples)
    _, p_value = chi_square_uniformity(counts, len(universe), trials, k)
    assert p_value > P_THRESHOLD, f"uniformity rejected: p={p_value:.5f}"


# ---------------------------------------------------------------------- #
# Core samplers over plain item streams, at several prefixes
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("prefix", [8, 20, 40])
def test_reservoir_sampler_uniform_at_prefix(prefix):
    universe = item_universe(prefix)
    k = 5

    def run_one(seed):
        sampler = ReservoirSampler(k, rng=random.Random(seed))
        sampler.process_many(universe)
        return sampler.sample

    assert_uniform_items(run_one, universe, k)


@pytest.mark.parametrize("prefix", [8, 20, 40])
def test_skip_reservoir_sampler_uniform_at_prefix(prefix):
    universe = item_universe(prefix)
    k = 5

    def run_one(seed):
        # Algorithm L: the skip-based reservoir with every item real.
        sampler = BatchedPredicateReservoir(
            k, predicate=lambda item: True, rng=random.Random(seed)
        )
        sampler.process_batch(ListBatch(universe))
        return sampler.sample

    assert_uniform_items(run_one, universe, k)


@pytest.mark.parametrize("dummy_every", [0, 2, 3])
def test_predicate_reservoir_uniform_over_real_items(dummy_every):
    """Uniformity over the real items only, for several dummy densities."""
    universe = item_universe(24)
    stream_items = []
    for i, item in enumerate(universe):
        stream_items.append(item)
        if dummy_every and i % dummy_every == 0:
            stream_items.append(None)
    k = 5

    def run_one(seed):
        # Algorithm 1: the whole stream as one batch.
        sampler = BatchedPredicateReservoir(k, rng=random.Random(seed))
        sampler.process_batch(ListBatch(stream_items))
        return sampler.sample

    assert_uniform_items(run_one, universe, k)


@pytest.mark.parametrize("batch_size", [1, 4, 9])
def test_batched_predicate_reservoir_uniform_across_batches(batch_size):
    """Batch boundaries must not bias the sample, whatever the batch size."""
    universe = item_universe(30)
    stream_items = []
    for i, item in enumerate(universe):
        if i % 3 == 0:
            stream_items.append(None)
        stream_items.append(item)
    batches = [
        stream_items[i : i + batch_size] for i in range(0, len(stream_items), batch_size)
    ]
    k = 6

    def run_one(seed):
        sampler = BatchedPredicateReservoir(k, rng=random.Random(seed))
        for batch in batches:
            sampler.process_batch(ListBatch(batch))
        return sampler.sample

    assert_uniform_items(run_one, universe, k)


def test_batched_reservoir_deferred_path_uniform():
    """``process_deferred_many`` must sample exactly like ``process_batch``."""
    universe = item_universe(30)
    batches = [universe[i : i + 5] for i in range(0, 30, 5)]
    k = 4

    def run_one(seed):
        sampler = BatchedPredicateReservoir(k, rng=random.Random(seed))
        sampler.process_deferred_many(
            [len(batch) for batch in batches],
            lambda items, position: items[position],
            batches,
        )
        return sampler.sample

    assert_uniform_items(run_one, universe, k)


# ---------------------------------------------------------------------- #
# Join samplers, at several stream prefixes
# ---------------------------------------------------------------------- #
def join_prefix_case(query, stream, fraction, k, build):
    """Chi-square the reservoir of ``build(seed)`` after a stream prefix."""
    prefix = stream[: max(1, int(len(stream) * fraction))]
    universe = ground_truth(query, prefix)
    if len(universe) < 4:
        pytest.skip("join too small at this prefix for a meaningful test")

    def run_one(seed):
        sampler = build(seed)
        for item in prefix:
            sampler.insert(item.relation, item.row)
        return sampler.sample

    p_value = uniformity_p_value(run_one, universe, TRIALS, k)
    assert p_value > P_THRESHOLD, f"uniformity rejected at prefix {fraction}: p={p_value:.5f}"


@pytest.mark.parametrize("fraction", [0.4, 0.7, 1.0])
@pytest.mark.parametrize(
    "flags",
    [{}, {"grouping": True}, {"maintain_root": True}],
    ids=["plain", "grouping", "maintain_root"],
)
def test_reservoir_join_uniform_at_prefixes(line3_query, fraction, flags):
    edges = make_edges(7, 14, seed=101)
    stream = make_graph_stream(line3_query, edges, seed=102)
    k = 7
    join_prefix_case(
        line3_query,
        stream,
        fraction,
        k,
        lambda seed: ReservoirJoin(line3_query, k, rng=random.Random(seed), **flags),
    )


@pytest.mark.parametrize("fraction", [0.5, 1.0])
@pytest.mark.parametrize("chunk_size", [3, 17])
def test_reservoir_join_batched_uniform_at_chunk_boundaries(
    line3_query, fraction, chunk_size
):
    """The batched fast path is uniform at every chunk boundary.

    The prefix length is aligned to the chunk size so the measured point is a
    batch boundary — exactly where the guarantee is made.
    """
    edges = make_edges(7, 14, seed=103)
    stream = make_graph_stream(line3_query, edges, seed=104)
    cut = max(chunk_size, int(len(stream) * fraction) // chunk_size * chunk_size)
    prefix = stream[:cut]
    universe = ground_truth(line3_query, prefix)
    if len(universe) < 4:
        pytest.skip("join too small at this prefix")
    k = 7

    def run_one(seed):
        sampler = ReservoirJoin(line3_query, k, rng=random.Random(seed))
        BatchIngestor(sampler, chunk_size=chunk_size).ingest(prefix)
        return sampler.sample

    p_value = uniformity_p_value(run_one, universe, TRIALS, k)
    assert p_value > P_THRESHOLD, f"batched uniformity rejected: p={p_value:.5f}"


@pytest.mark.parametrize("chunk_size", [4, 16])
def test_cyclic_bulk_path_uniform_at_chunk_boundaries(triangle_query, chunk_size):
    """The cyclic bulk ``insert_batch`` path is uniform at chunk boundaries."""
    edges = make_edges(6, 12, seed=111)
    stream = make_graph_stream(triangle_query, edges, seed=112)
    universe = ground_truth(triangle_query, stream)
    if len(universe) < 4:
        pytest.skip("join too small for a meaningful test")
    k = 6

    def run_one(seed):
        sampler = CyclicReservoirJoin(triangle_query, k, rng=random.Random(seed))
        BatchIngestor(sampler, chunk_size=chunk_size).ingest(stream)
        return sampler.sample

    p_value = uniformity_p_value(run_one, universe, TRIALS, k)
    assert p_value > P_THRESHOLD, f"cyclic bulk uniformity rejected: p={p_value:.5f}"


@pytest.mark.parametrize("fraction", [0.6, 1.0])
def test_cyclic_reservoir_join_uniform_at_prefixes(triangle_query, fraction):
    edges = make_edges(6, 12, seed=105)
    stream = make_graph_stream(triangle_query, edges, seed=106)
    k = 6
    join_prefix_case(
        triangle_query,
        stream,
        fraction,
        k,
        lambda seed: CyclicReservoirJoin(triangle_query, k, rng=random.Random(seed)),
    )


def test_foreign_key_reservoir_join_uniform():
    from repro import JoinQuery, StreamTuple

    query = JoinQuery.from_spec(
        "fact-dim", {"F": ["a", "d"], "D": ["d", "e"]}, keys={"D": ["d"]}
    )
    rng = random.Random(107)
    stream = [StreamTuple("D", (d, rng.randrange(3))) for d in range(5)]
    stream += [
        StreamTuple("F", (rng.randrange(6), rng.randrange(5))) for _ in range(40)
    ]
    rng.shuffle(stream)
    k = 6
    join_prefix_case(
        query,
        stream,
        1.0,
        k,
        lambda seed: ReservoirJoin(query, k, rng=random.Random(seed), foreign_key=True),
    )
