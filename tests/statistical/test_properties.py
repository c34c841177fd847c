"""Property-based correctness harness for the ingestion subsystem (``slow``).

Randomized schemas and streams (fixed seeds, so failures reproduce) assert
the two properties the sharded/bulk refactor must preserve:

(a) **Sharded ≡ unsharded batched, distribution-wise.**  For random acyclic
    queries and streams, ``ShardedIngestor.merged_sample`` must draw from
    exactly the result set the unsharded batched sampler draws from (checked
    set-exactly with an over-sized reservoir, where any uniform sampler must
    return the whole set) and must be uniform over it (checked with the
    chi-square helpers, the same way the unsharded path is checked).

(b) **Cyclic bag deltas ≡ the generic delta oracle.**  ``CyclicReservoirJoin``
    has one entry path (``insert`` is a one-item ``insert_batch``), so the
    exact comparison lives in tier-1
    ``tests/test_cyclic_join.py::TestBagDeltaEnumeration``: for each
    arriving tuple and each touched bag, the bulk path's
    ``_BagDeltaPlan.deltas(row)`` must return the rows ``delta_results``
    enumerates over a shadow bag database, in the same order.  This section
    keeps the distributional half: bulk chunks are uniform on random cyclic
    cases.

(c), (d) Unassigned, so the sections below keep the letters docs and CI
    cite.

(e) **Checkpoint/restore resumes bit-identically.**  For every durable
    ingestor — batched acyclic, cyclic and pickle-fallback baseline, and
    sharded — ingesting a prefix, saving a checkpoint, restoring it
    (through the on-disk codec) and ingesting the suffix must end in exactly the state
    of an uninterrupted run under the same seed: same reservoirs in order,
    same statistics, same merged samples.  Durability is a transport
    concern, never a distribution change — the restored RNG continues the
    exact random stream the uninterrupted run consumes.

(f) **Realistic workload schemas survive ``chunk_stream`` at any chunk
    size.**  The TPC-DS and LDBC workload streams, cut at chunk sizes
    {1, 7, 1024}, must reproduce the ground-truth result set exactly with
    an over-sized reservoir; at ``chunk_size=1`` the batched path must be
    *bit-identical* to per-tuple ingestion after every single tuple, on
    each workload schema; and the small-reservoir sample must stay uniform.

(g) **Served reads ≡ standalone samplers stopped at the epoch's prefix.**
    A ``SampleServer``'s copy-on-read cut at epoch ``E`` must hold, bit
    for bit, the reservoir of a standalone co-seeded run that ingested the
    first ``E`` chunks and then stopped — at *every* epoch of random
    acyclic cases, for the batched host directly and for the sharded host
    through ``merged_sample`` under equal explicit merge RNGs.  Serving is
    a read-path concern, never a distribution change: the snapshot capture
    must neither consume the writer's randomness nor perturb its state.

Trial counts honour ``REPRO_STAT_TRIALS`` (see ``tests/conftest.py``).
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro import (
    BatchIngestor,
    CyclicReservoirJoin,
    JoinQuery,
    ReservoirJoin,
    SampleServer,
    ShardedIngestor,
    StreamTuple,
)
from repro import SJoin
from repro.workloads import ldbc, tpcds
from repro.relational import Database, count_results, join_size
from repro.relational.stream import chunk_stream

from tests.conftest import random_stream, stat_trials
from tests.oracles import (
    ground_truth,
    ground_truth_keys,
    result_key,
    uniformity_p_value,
)

P_THRESHOLD = 0.002
TRIALS = stat_trials(300)


# ---------------------------------------------------------------------- #
# Random case generators (all deterministic in the seed)
# ---------------------------------------------------------------------- #
def random_acyclic_case(rng: random.Random) -> Tuple[JoinQuery, List[StreamTuple]]:
    """A random chain or star query with a random stream."""
    if rng.random() < 0.5:
        length = rng.choice([2, 3, 4])
        spec = {f"R{i}": [f"x{i}", f"x{i + 1}"] for i in range(length)}
        query = JoinQuery.from_spec(f"chain-{length}", spec)
    else:
        arms = rng.choice([3, 4])
        spec = {f"R{i}": ["x0", f"x{i}"] for i in range(1, arms + 1)}
        query = JoinQuery.from_spec(f"star-{arms}", spec)
    return query, random_stream(query, rng, n=rng.choice([80, 120]), domain=rng.choice([4, 6]))


def random_cyclic_case(rng: random.Random) -> Tuple[JoinQuery, List[StreamTuple]]:
    """A random triangle or cycle-4 query with a random stream."""
    if rng.random() < 0.5:
        query = JoinQuery.from_spec(
            "triangle", {"R1": ["x1", "x2"], "R2": ["x2", "x3"], "R3": ["x1", "x3"]}
        )
    else:
        query = JoinQuery.from_spec(
            "cycle-4",
            {
                "R1": ["x1", "x2"],
                "R2": ["x2", "x3"],
                "R3": ["x3", "x4"],
                "R4": ["x1", "x4"],
            },
        )
    return query, random_stream(query, rng, n=90, domain=rng.choice([3, 4]))


# ---------------------------------------------------------------------- #
# (a) Sharded merged sample ≡ unsharded batched
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("case_seed", [3, 19, 71, 113])
def test_sharded_draws_exactly_the_unsharded_result_set(case_seed):
    """Over-sized reservoirs: merged sample == batched sample == ground truth."""
    rng = random.Random(case_seed)
    query, stream = random_acyclic_case(rng)
    truth = ground_truth_keys(query, stream)
    if len(truth) < 2:
        pytest.skip("degenerate random instance (join too small)")
    k_all = len(truth) + 5
    num_shards = rng.choice([2, 3, 5])

    batched = ReservoirJoin(query, k_all, rng=random.Random(1))
    BatchIngestor(batched, chunk_size=13).ingest(stream)
    batched_set = {result_key(r) for r in batched.sample}
    assert batched_set == truth

    sharded = ShardedIngestor(
        query, k=k_all, num_shards=num_shards, chunk_size=13, rng=random.Random(2)
    )
    sharded.ingest(stream)
    assert {result_key(r) for r in sharded.merged_sample()} == batched_set
    # The shard-local joins must tile the true result set.
    assert sum(
        count_results(sampler.query, sampler.index.database)
        for sampler in sharded.samplers
    ) == len(truth)


@pytest.mark.parametrize("case_seed", [7, 29])
def test_sharded_small_reservoir_uniform_like_unsharded(case_seed):
    """Small reservoirs: sharded and unsharded both pass the same chi-square."""
    rng = random.Random(case_seed)
    query, stream = random_acyclic_case(rng)
    universe = ground_truth(query, stream)
    if len(universe) < 8:
        pytest.skip("degenerate random instance (join too small)")
    k = max(3, len(universe) // 8)
    num_shards = rng.choice([2, 4])

    def run_sharded(seed):
        ingestor = ShardedIngestor(
            query, k=k, num_shards=num_shards, chunk_size=11, rng=random.Random(seed)
        )
        ingestor.ingest(stream)
        sample = ingestor.merged_sample()
        assert len(sample) == min(k, len(universe))
        return sample

    def run_batched(seed):
        sampler = ReservoirJoin(query, k, rng=random.Random(seed))
        BatchIngestor(sampler, chunk_size=11).ingest(stream)
        return sampler.sample

    p_sharded = uniformity_p_value(run_sharded, universe, TRIALS, k)
    p_batched = uniformity_p_value(run_batched, universe, TRIALS, k)
    assert p_sharded > P_THRESHOLD, f"sharded rejected: p={p_sharded:.5f}"
    assert p_batched > P_THRESHOLD, f"unsharded rejected: p={p_batched:.5f}"


@pytest.mark.parametrize("case_seed", [5, 37, 59])
def test_count_results_matches_enumeration_on_random_cases(case_seed):
    """The exact-count DP that weights the merge agrees with enumeration."""
    rng = random.Random(case_seed)
    query, stream = random_acyclic_case(rng)
    database = Database(query)
    for item in stream:
        database.insert(item.relation, item.row)
    assert count_results(query, database) == join_size(query, database)


# ---------------------------------------------------------------------- #
# (e) Checkpoint at a prefix, restore, ingest the suffix — bit-identical
# ---------------------------------------------------------------------- #
def _drive(ingestor, chunks: List[List[StreamTuple]]) -> None:
    for chunk in chunks:
        ingestor.ingest_batch(chunk)


@pytest.mark.parametrize("case_seed", [6, 27, 61])
@pytest.mark.parametrize("kind", ["acyclic", "cyclic", "baseline"])
def test_checkpointed_batch_ingest_bit_identical(case_seed, kind, tmp_path):
    """Prefix + save + restore + suffix == uninterrupted, for native-snapshot
    samplers and a pickle-fallback baseline alike."""
    rng = random.Random(case_seed)
    if kind == "acyclic":
        query, stream = random_acyclic_case(rng)
        make = lambda: ReservoirJoin(query, 7, rng=random.Random(case_seed + 1))
    elif kind == "baseline":
        query, stream = random_acyclic_case(rng)
        make = lambda: SJoin(query, 7, rng=random.Random(case_seed + 1))
    else:
        query, stream = random_cyclic_case(rng)
        make = lambda: CyclicReservoirJoin(query, 7, rng=random.Random(case_seed + 1))
    chunk_size = rng.choice([8, 17])
    chunks = list(chunk_stream(stream, chunk_size))
    cut = rng.randrange(1, len(chunks))

    uninterrupted = BatchIngestor(make(), chunk_size=chunk_size)
    _drive(uninterrupted, chunks)

    interrupted = BatchIngestor(make(), chunk_size=chunk_size)
    _drive(interrupted, chunks[:cut])
    path = tmp_path / "ckpt"
    interrupted.save(path)
    resumed = BatchIngestor.restore(path)
    _drive(resumed, chunks[cut:])

    assert resumed.sampler.sample == uninterrupted.sampler.sample
    assert resumed.sampler.statistics() == uninterrupted.sampler.statistics()
    assert resumed.statistics() == uninterrupted.statistics()


@pytest.mark.parametrize("case_seed", [14, 39, 73])
def test_checkpointed_sharded_ingest_bit_identical(case_seed, tmp_path):
    """Per-shard reservoirs, exact counts and the merged draw all continue
    exactly through a save/restore (the master RNG state included)."""
    rng = random.Random(case_seed)
    query, stream = random_acyclic_case(rng)
    chunk_size = rng.choice([8, 17])
    num_shards = rng.choice([2, 3])
    chunks = list(chunk_stream(stream, chunk_size))
    cut = rng.randrange(1, len(chunks))

    def build():
        return ShardedIngestor(
            query, k=6, num_shards=num_shards, chunk_size=chunk_size,
            rng=random.Random(case_seed + 1),
        )

    uninterrupted = build()
    _drive(uninterrupted, chunks)

    interrupted = build()
    _drive(interrupted, chunks[:cut])
    path = tmp_path / "ckpt"
    interrupted.save(path)
    resumed = ShardedIngestor.restore(path)
    _drive(resumed, chunks[cut:])

    for restored, reference in zip(resumed.samplers, uninterrupted.samplers):
        assert restored.sample == reference.sample
        assert restored.statistics() == reference.statistics()
    assert resumed.shard_states() == uninterrupted.shard_states()
    assert resumed.shard_loads() == uninterrupted.shard_loads()
    # The master RNG resumed exactly: the next merged draw is identical.
    assert resumed.merged_sample() == uninterrupted.merged_sample()


# ---------------------------------------------------------------------- #
# (b) Cyclic bulk chunks are uniform (the exact delta check is tier-1)
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("case_seed", [11, 53])
@pytest.mark.parametrize("chunk_size", [4, 25])
def test_cyclic_bulk_path_uniform_on_random_cases(case_seed, chunk_size):
    """Bulk chunks: distribution-identical to per-tuple (chi-square + exact set)."""
    rng = random.Random(case_seed)
    query, stream = random_cyclic_case(rng)
    universe = ground_truth(query, stream)
    if len(universe) < 4:
        pytest.skip("degenerate random instance (join too small)")

    # Exact result set with an over-sized reservoir.
    big = CyclicReservoirJoin(query, len(universe) + 5, rng=random.Random(1))
    BatchIngestor(big, chunk_size=chunk_size).ingest(stream)
    assert {result_key(r) for r in big.sample} == {result_key(r) for r in universe}

    k = min(6, max(3, len(universe) // 4))

    def run_one(seed):
        sampler = CyclicReservoirJoin(query, k, rng=random.Random(seed))
        BatchIngestor(sampler, chunk_size=chunk_size).ingest(stream)
        return sampler.sample

    p_value = uniformity_p_value(run_one, universe, TRIALS, k)
    assert p_value > P_THRESHOLD, f"cyclic bulk rejected: p={p_value:.5f}"


# ---------------------------------------------------------------------- #
# (f) Workload schemas through chunk_stream at {1, 7, 1024}
# ---------------------------------------------------------------------- #
WORKLOAD_BUILDERS = {
    "tpcds-qx": lambda rng: tpcds.qx_workload(tpcds.generate(0.05, rng), rng),
    "tpcds-qy": lambda rng: tpcds.qy_workload(tpcds.generate(0.05, rng), rng),
    "ldbc-q10": lambda rng: ldbc.q10_workload(ldbc.generate(0.05, rng), rng),
}

WORKLOAD_CHUNK_SIZES = [1, 7, 1024]


@pytest.mark.parametrize("workload", list(WORKLOAD_BUILDERS))
@pytest.mark.parametrize("chunk_size", WORKLOAD_CHUNK_SIZES)
def test_workload_through_chunk_stream_exact_set(workload, chunk_size):
    """Chunk boundaries never change what an over-sized reservoir holds —
    single-tuple chunks, tiny odd chunks and one-giant-chunk streams all
    end on exactly the ground-truth result set of the workload schema."""
    query, stream = WORKLOAD_BUILDERS[workload](random.Random(35))
    truth = ground_truth_keys(query, stream)
    assert len(truth) > 8, "workload instance too small to be meaningful"
    sampler = ReservoirJoin(query, len(truth) + 5, rng=random.Random(1))
    ingestor = BatchIngestor(sampler, chunk_size=chunk_size)
    expected_batches = 0
    for chunk in chunk_stream(stream, chunk_size):
        assert len(chunk) <= chunk_size
        ingestor.ingest_batch(chunk)
        expected_batches += 1
    assert ingestor.batches_ingested == expected_batches
    assert ingestor.tuples_ingested == len(stream)
    assert {result_key(r) for r in sampler.sample} == truth


@pytest.mark.parametrize("workload", list(WORKLOAD_BUILDERS))
def test_workload_batched_bit_identical_to_pertuple_at_chunk_one(workload):
    """On each workload schema, single-tuple ``insert_batch`` consumes the
    same randomness as per-tuple ``insert``: same reservoir after *every*
    stream tuple, same statistics at the end."""
    query, stream = WORKLOAD_BUILDERS[workload](random.Random(35))
    k = 12
    pertuple = ReservoirJoin(query, k, rng=random.Random(7))
    batched = ReservoirJoin(query, k, rng=random.Random(7))
    for item in stream:
        pertuple.insert(item.relation, item.row)
        batched.insert_batch([item])
        assert batched.sample == pertuple.sample
    assert batched.statistics() == pertuple.statistics()


@pytest.mark.parametrize("chunk_size", [7])
def test_workload_small_reservoir_uniform_through_chunks(chunk_size):
    """Chi-square on the cheapest workload instance: the batched reservoir
    stays uniform over the TPC-DS QX ground truth when the stream arrives
    in odd-sized chunks."""
    query, stream = WORKLOAD_BUILDERS["tpcds-qx"](random.Random(35))
    universe = ground_truth(query, stream)
    assert len(universe) > 8
    k = max(3, len(universe) // 8)

    def run_one(seed):
        sampler = ReservoirJoin(query, k, rng=random.Random(seed))
        BatchIngestor(sampler, chunk_size=chunk_size).ingest(stream)
        return sampler.sample

    p_value = uniformity_p_value(run_one, universe, TRIALS, k)
    assert p_value > P_THRESHOLD, f"workload batched rejected: p={p_value:.5f}"


# ---------------------------------------------------------------------- #
# (g) Served reads ≡ standalone samplers stopped at the epoch's prefix
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("case_seed", [9, 33, 58])
def test_served_batched_sample_bit_identical_at_every_epoch(case_seed):
    """At each chunk boundary the server's cut holds exactly the reservoir
    of a co-seeded standalone run stopped at that prefix — and capturing
    the cut never perturbs the writer (the runs stay identical to the
    end even though every epoch was snapshotted, and a cut taken earlier
    still serves its own epoch's reservoir afterwards)."""
    rng = random.Random(case_seed)
    query, stream = random_acyclic_case(rng)
    chunk_size = rng.choice([8, 17])
    chunks = list(chunk_stream(stream, chunk_size))

    server = SampleServer(
        BatchIngestor(
            ReservoirJoin(query, 7, rng=random.Random(case_seed + 1)),
            chunk_size=chunk_size,
        ),
        rng=random.Random(case_seed + 2),
    )
    standalone = BatchIngestor(
        ReservoirJoin(query, 7, rng=random.Random(case_seed + 1)),
        chunk_size=chunk_size,
    )
    served = []
    for epoch, chunk in enumerate(chunks, start=1):
        server.ingest_batch(chunk)
        standalone.ingest_batch(chunk)
        snap = server.snapshot()
        assert snap.epoch == epoch
        assert snap.tuples_ingested == standalone.tuples_ingested
        expected = list(standalone.sampler.sample)
        assert snap.sample() == expected
        served.append((snap, expected))
    # Every cut still serves its own epoch after all later chunks.
    for snap, expected in served:
        assert snap.sample() == expected
    assert server.ingestor.sampler.statistics() == standalone.sampler.statistics()


@pytest.mark.parametrize("case_seed", [12, 41, 77])
def test_served_sharded_merged_sample_bit_identical_at_every_epoch(case_seed):
    """The served cut of a sharded host realises the exact key merge:
    under an equal explicit merge RNG it draws the same merged
    sample as the live standalone ingestor at every chunk boundary."""
    rng = random.Random(case_seed)
    query, stream = random_acyclic_case(rng)
    chunk_size = rng.choice([8, 17])
    num_shards = rng.choice([2, 3])
    chunks = list(chunk_stream(stream, chunk_size))

    server = SampleServer(
        ShardedIngestor(
            query, 7, num_shards=num_shards, chunk_size=chunk_size,
            rng=random.Random(case_seed + 1),
        ),
        rng=random.Random(case_seed + 2),
    )
    standalone = ShardedIngestor(
        query, 7, num_shards=num_shards, chunk_size=chunk_size,
        rng=random.Random(case_seed + 1),
    )
    for epoch, chunk in enumerate(chunks, start=1):
        server.ingest_batch(chunk)
        standalone.ingest_batch(chunk)
        snap = server.snapshot()
        assert snap.epoch == epoch
        merge_rng = case_seed + 1000 + epoch
        assert snap.sample(
            7, rng=random.Random(merge_rng)
        ) == standalone.merged_sample(7, rng=random.Random(merge_rng))
    assert [
        list(state.sample) for state in snap.shard_states
    ] == standalone.shard_samples()
