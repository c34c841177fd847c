"""Property-based correctness harness for the ingestion subsystem (``slow``).

Randomized schemas and streams (fixed seeds, so failures reproduce) assert
the two properties the sharded/bulk refactor must preserve:

(a) **Sharded ≡ unsharded batched, distribution-wise.**  For random acyclic
    queries and streams, ``ShardedIngestor.merged_sample`` must draw from
    exactly the result set the unsharded batched sampler draws from (checked
    set-exactly with an over-sized reservoir, where any uniform sampler must
    return the whole set) and must be uniform over it (checked with the
    chi-square helpers, the same way the unsharded path is checked).

    The process-parallel form is stronger: ``ingest_parallel`` through the
    persistent worker pool must leave every shard replica *bit-identical*
    to its serially-fed twin — same reservoirs in order, same exact counts,
    same merged draw under the same merge RNG — for acyclic and (via a
    custom factory) cyclic samplers alike, across pool reuse.

(b) **Cyclic bulk ≡ per-tuple, bit-identically at ``chunk_size=1``.**  With
    the same seed, driving ``CyclicReservoirJoin`` through single-tuple
    ``insert_batch`` calls must consume the same randomness and produce the
    same reservoir (in order) and the same statistics as per-tuple
    ``insert`` — the bulk path degenerates exactly, not just
    distributionally.

(c), (d) Unassigned, so the sections below keep the letters docs and CI
    cite.

(e) **Checkpoint/restore resumes bit-identically.**  For every durable
    ingestor — batched acyclic, cyclic and pickle-fallback baseline,
    sharded, and the draining async pipeline wrapper — ingesting a prefix,
    saving a checkpoint, restoring it (through the on-disk codec) and ingesting the suffix must end in exactly the state
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
    AsyncIngestor,
    BatchIngestor,
    CyclicReservoirJoin,
    JoinQuery,
    ReservoirJoin,
    SampleServer,
    ShardedIngestor,
    StreamTuple,
)
from repro import SJoin
from repro.ingest import chunked
from repro.workloads import ldbc, tpcds
from repro.relational import Database, count_results, join_size
from repro.stats.uniformity import result_key, uniformity_p_value

from tests.conftest import ground_truth, ground_truth_keys, stat_trials

P_THRESHOLD = 0.002
TRIALS = stat_trials(300)


# ---------------------------------------------------------------------- #
# Random case generators (all deterministic in the seed)
# ---------------------------------------------------------------------- #
def random_stream(query: JoinQuery, rng: random.Random, n: int, domain: int) -> List[StreamTuple]:
    names = query.relation_names
    stream = []
    for _ in range(n):
        relation = rng.choice(names)
        arity = query.relation(relation).arity
        stream.append(
            StreamTuple(relation, tuple(rng.randrange(domain) for _ in range(arity)))
        )
    return stream


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
    # The exact shard counts must tile the true result set.
    assert sharded.total_results() == len(truth)


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


@pytest.mark.parametrize("case_seed", [11, 43, 89])
@pytest.mark.parametrize("kind", ["acyclic", "cyclic"])
def test_parallel_pool_bit_identical_to_serial(case_seed, kind):
    """Property form of the gauntlet's bit-identity tier: on random joins
    (acyclic and cyclic — the latter rides the pool via a custom factory,
    since replica *state* crosses the process boundary, not the callable),
    pool-fed shard replicas equal their serially-fed twins reservoir for
    reservoir, and the weighted merge draws the same sample under the same
    merge RNG.  Two ``ingest_parallel`` calls share one pool, so reuse is
    part of the property."""
    rng = random.Random(case_seed)
    if kind == "acyclic":
        query, stream = random_acyclic_case(rng)
        factory = None
    else:
        query, stream = random_cyclic_case(rng)
        factory = lambda shard, r: CyclicReservoirJoin(query, 6, rng=r)
    chunk_size = rng.choice([8, 17])
    num_shards = rng.choice([2, 3])

    def build():
        return ShardedIngestor(
            query, k=6, num_shards=num_shards, chunk_size=chunk_size,
            factory=factory, rng=random.Random(case_seed + 1),
        )

    # Both twins see the same two-call pattern: chunk boundaries restart at
    # each call, and samplers consume randomness per chunk, so bit-identity
    # is defined over equal call sequences (as everywhere in this file).
    cut = len(stream) // 2
    serial = build()
    serial.ingest(stream[:cut])
    serial.ingest(stream[cut:])
    parallel = build()
    parallel.ingest_parallel(stream[:cut])
    parallel.ingest_parallel(stream[cut:])
    try:
        assert parallel.shard_samples() == [
            list(sampler.sample) for sampler in serial.samplers
        ]
        assert parallel.shard_counts() == serial.shard_counts()
        assert parallel.merged_sample(
            rng=random.Random(case_seed + 2)
        ) == serial.merged_sample(rng=random.Random(case_seed + 2))
    finally:
        parallel.close_pool(sync=False)


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
def _chunks_of(stream: List[StreamTuple], chunk_size: int) -> List[List[StreamTuple]]:
    return list(chunked(stream, chunk_size))


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
    chunks = _chunks_of(stream, chunk_size)
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
    chunks = _chunks_of(stream, chunk_size)
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
    assert resumed.shard_counts() == uninterrupted.shard_counts()
    assert resumed.shard_loads() == uninterrupted.shard_loads()
    # The master RNG resumed exactly: the next merged draw is identical.
    assert resumed.merged_sample() == uninterrupted.merged_sample()


@pytest.mark.parametrize("case_seed", [12, 37])
@pytest.mark.parametrize("target_kind", ["batched", "sharded"])
def test_checkpointed_async_ingest_bit_identical(case_seed, target_kind, tmp_path):
    """A draining AsyncIngestor snapshot resumes exactly: the checkpoint is
    taken at a quiesced chunk boundary, the target round-trips through its
    own snapshot capability, and the resumed pipeline ends bit-identical to
    an uninterrupted serial run of the same target."""
    rng = random.Random(case_seed)
    query, stream = random_acyclic_case(rng)
    chunk_size = rng.choice([8, 17])
    chunks = _chunks_of(stream, chunk_size)
    cut = rng.randrange(1, len(chunks))

    def build_target():
        if target_kind == "batched":
            return BatchIngestor(
                ReservoirJoin(query, 7, rng=random.Random(case_seed + 1)),
                chunk_size=chunk_size,
            )
        return ShardedIngestor(
            query, k=7, num_shards=3, chunk_size=chunk_size,
            rng=random.Random(case_seed + 1),
        )

    def final_samples(target):
        if target_kind == "batched":
            return [target.sampler.sample]
        return [sampler.sample for sampler in target.samplers]

    uninterrupted = build_target()
    _drive(uninterrupted, chunks)

    interrupted = AsyncIngestor(build_target(), chunk_size=chunk_size)
    path = tmp_path / "ckpt"
    with interrupted:
        for chunk in chunks[:cut]:
            interrupted.submit(chunk)
        interrupted.save(path)
    resumed = AsyncIngestor.restore(path)
    with resumed:
        for chunk in chunks[cut:]:
            resumed.submit(chunk)
    assert final_samples(resumed.target) == final_samples(uninterrupted)
    assert resumed.chunks_submitted == len(chunks)
    assert resumed.tuples_submitted == len(stream)


# ---------------------------------------------------------------------- #
# (b) Cyclic bulk path ≡ per-tuple at chunk_size=1, bit for bit
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("case_seed", [2, 13, 43, 89])
def test_cyclic_bulk_path_bit_identical_at_chunk_size_one(case_seed):
    rng = random.Random(case_seed)
    query, stream = random_cyclic_case(rng)
    k = rng.choice([3, 7, 50])
    pertuple = CyclicReservoirJoin(query, k, rng=random.Random(case_seed + 1))
    bulk = CyclicReservoirJoin(query, k, rng=random.Random(case_seed + 1))
    for item in stream:
        pertuple.insert(item.relation, item.row)
        bulk.insert_batch([item])
        # Same randomness consumed, same reservoir, after *every* tuple.
        assert bulk.reservoir._sample == pertuple.reservoir._sample
    assert bulk.statistics() == pertuple.statistics()


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
    for chunk in chunked(stream, chunk_size):
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
    chunks = _chunks_of(stream, chunk_size)

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
    """The served cut of a sharded host realises the exact hypergeometric
    merge: under an equal explicit merge RNG it draws the same merged
    sample as the live standalone ingestor at every chunk boundary."""
    rng = random.Random(case_seed)
    query, stream = random_acyclic_case(rng)
    chunk_size = rng.choice([8, 17])
    num_shards = rng.choice([2, 3])
    chunks = _chunks_of(stream, chunk_size)

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
        assert snap.merged_sample(
            7, rng=random.Random(merge_rng)
        ) == standalone.merged_sample(7, rng=random.Random(merge_rng))
    assert [
        list(state.sample) for state in snap.shard_states
    ] == standalone.shard_samples()
