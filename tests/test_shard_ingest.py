"""Tests for the sharded ingestion subsystem (``repro.ingest.shard``).

Covers routing (partition attribute choice, stable hashing, broadcast),
all-or-nothing batch validation across shards, the regenerated-key merge
(which never recounts a shard), and the documented error behaviour.
The statistical properties (uniformity of ``merged_sample``) live in
``tests/statistical/``.
"""

from __future__ import annotations

import math
import random
import sys

import pytest

from repro import (
    BatchIngestor,
    CyclicReservoirJoin,
    JoinQuery,
    ReservoirJoin,
    SampleServer,
    ShardedIngestor,
    StreamDelete,
    StreamTuple,
    TurnstileReservoirJoin,
    WindowedSampler,
    surviving_rows,
)
from repro.ingest.shard import (
    ShardState,
    merge_shard_samples,
    partition_attribute,
    route_rows,
    stable_shard_hash,
)
from repro.relational.join import count_results
from repro.relational.schema import tuple_getter

from tests.conftest import make_edges, make_graph_stream
from tests.oracles import ground_truth_keys, result_key


def partition_getters(query, attr="x2"):
    """Projection getters of the relations carrying ``attr`` (the router's map)."""
    return {
        schema.name: tuple_getter(schema.positions_of((attr,)))
        for schema in query.relations
        if attr in schema.attrs
    }


def oracle_counts(ingestor):
    """Exact shard-local join sizes: the O(N) ``count_results`` oracle."""
    return [
        count_results(sampler.query, sampler.index.database)
        for sampler in ingestor.samplers
    ]


def line3_stream(query, n, seed, domain=10):
    rng = random.Random(seed)
    names = query.relation_names
    return [
        StreamTuple(rng.choice(names), (rng.randrange(domain), rng.randrange(domain)))
        for _ in range(n)
    ]


# ---------------------------------------------------------------------- #
# Routing
# ---------------------------------------------------------------------- #
class TestRouting:
    def test_partition_attribute_prefers_max_coverage(self, line3_query, star3_query):
        # chain-3: every attribute is in at most two relations; canonical
        # order breaks the tie deterministically.
        assert partition_attribute(line3_query) == "x2"
        # star-3: the hub attribute is in every relation.
        assert partition_attribute(star3_query) == "x0"

    def test_star_query_has_no_broadcast(self, star3_query):
        ingestor = ShardedIngestor(star3_query, k=5, num_shards=4)
        assert ingestor.broadcast_relations == ()
        stream = [StreamTuple("R1", (1, 2)), StreamTuple("R2", (1, 3))]
        parts = ingestor.partition(stream)
        assert sum(len(part) for part in parts) == 2

    def test_chain_query_broadcasts_uncovered_relation(self, line3_query):
        ingestor = ShardedIngestor(line3_query, k=5, num_shards=3)
        assert ingestor.broadcast_relations == ("R3",)
        parts = ingestor.partition([("R3", (1, 2))])
        assert all(part == [("R3", (1, 2))] for part in parts)

    def test_shard_of_is_deterministic_and_in_range(self, line3_query):
        ingestor = ShardedIngestor(line3_query, k=5, num_shards=5)
        for row in [(0, 0), (1, 2), (3, 99)]:
            shard = ingestor.shard_of("R1", row)
            assert 0 <= shard < 5
            assert shard == ingestor.shard_of("R1", row)
        assert ingestor.shard_of("R3", (1, 2)) is None  # broadcast
        with pytest.raises(KeyError):
            ingestor.shard_of("NOPE", (1, 2))

    def test_join_partners_land_on_the_same_shard(self, line3_query):
        # R1 and R2 share the partition attribute x2: rows agreeing on x2
        # must co-locate, whatever their other values.
        ingestor = ShardedIngestor(line3_query, k=5, num_shards=4)
        for x2 in range(20):
            assert ingestor.shard_of("R1", (x2 + 7, x2)) == ingestor.shard_of(
                "R2", (x2, x2 + 3)
            )

    def test_broadcast_relations_route_to_minus_one(self, line3_query):
        pairs = [("R3", (1, 2))] * 5 + [("R1", (1, 2))]
        assignments = route_rows(pairs, partition_getters(line3_query), 4)
        assert assignments[:5] == [-1] * 5
        assert 0 <= assignments[5] < 4

    @pytest.mark.parametrize("n", [3, 48])
    def test_shard_of_agrees_with_route_rows(self, line3_query, n):
        ingestor = ShardedIngestor(
            line3_query, k=5, num_shards=4, chunk_size=16, rng=random.Random(0)
        )
        stream = line3_stream(line3_query, n, seed=3, domain=40)
        pairs = [(item.relation, item.row) for item in stream]
        assignments = route_rows(pairs, partition_getters(line3_query), 4)
        assert len(assignments) == n
        for item, assignment in zip(stream, assignments):
            expected = None if assignment < 0 else assignment
            assert ingestor.shard_of(item.relation, item.row) == expected

    def test_stable_hash_is_process_independent(self):
        assert stable_shard_hash((1,)) == stable_shard_hash((1,))
        assert stable_shard_hash(("a",)) != stable_shard_hash(("b",))
        # Strings must not go through the per-process-salted builtin hash:
        # the same value re-hashed under a different PYTHONHASHSEED (here:
        # simulated by a subprocess) must land on the same shard.
        import subprocess
        import sys

        script = (
            "import sys; sys.path.insert(0, 'src'); "
            "from repro.ingest.shard import stable_shard_hash; "
            "print(stable_shard_hash(('user-42', 7, None)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONHASHSEED": "12345", "PATH": "/usr/bin:/bin"},
            cwd=".",
        )
        assert int(out.stdout) == stable_shard_hash(("user-42", 7, None))

    def test_stable_hash_consistent_with_join_equality(self):
        """Join-equal values of different numeric types must co-locate.

        The join indexes compare with ``==`` (1 == 1.0 == True), so the
        router must agree or cross-type join results silently vanish from
        every shard.
        """
        assert stable_shard_hash((1,)) == stable_shard_hash((1.0,))
        assert stable_shard_hash((1,)) == stable_shard_hash((True,))
        assert stable_shard_hash((0,)) == stable_shard_hash((0.0,))

    def test_cross_type_join_results_are_not_lost(self):
        """Regression: int on one side, float on the other, same join value."""
        query = JoinQuery.from_spec("two", {"R1": ["x", "y"], "R2": ["y", "z"]})
        stream = [("R1", (5, 1)), ("R2", (1.0, 7))]
        unsharded = ReservoirJoin(query, 10, rng=random.Random(0))
        unsharded.insert_batch(stream)
        assert unsharded.sample_size == 1
        for num_shards in (2, 4, 7):
            ingestor = ShardedIngestor(
                query, k=10, num_shards=num_shards, rng=random.Random(0)
            )
            ingestor.ingest_batch(stream)
            assert sum(oracle_counts(ingestor)) == 1
            assert len(ingestor.merged_sample()) == 1

    def test_explicit_partition_attr_validated(self, line3_query):
        with pytest.raises(ValueError):
            ShardedIngestor(line3_query, k=5, partition_attr="nope")
        ingestor = ShardedIngestor(line3_query, k=5, partition_attr="x3")
        assert ingestor.broadcast_relations == ("R1",)


# ---------------------------------------------------------------------- #
# Ingestion and validation
# ---------------------------------------------------------------------- #
class TestIngestion:
    def test_counters_and_statistics(self, line3_query):
        stream = line3_stream(line3_query, 60, seed=3)
        ingestor = ShardedIngestor(
            line3_query, k=5, num_shards=4, chunk_size=16, rng=random.Random(0)
        )
        ingestor.ingest(stream)
        stats = ingestor.statistics()
        assert stats["tuples_ingested"] == 60
        assert stats["batches_ingested"] == 4  # 16+16+16+12
        r3_tuples = sum(1 for item in stream if item.relation == "R3")
        assert stats["broadcast_deliveries"] == 3 * r3_tuples
        assert sum(stats["shard_tuples"]) == 60 + stats["broadcast_deliveries"]
        assert not {"parallel", "parallel_wall_seconds", "pool_startup_seconds"} & set(stats)

    def test_partition_is_side_effect_free(self, line3_query):
        # Inspecting routing must not advance the delivery counters; only
        # actual ingestion (the delivery point) counts, exactly once.
        ingestor = ShardedIngestor(line3_query, k=5, num_shards=3, rng=random.Random(0))
        chunk = [("R1", (1, 2)), ("R3", (3, 4))]
        ingestor.partition(chunk)
        ingestor.partition(chunk)
        assert ingestor.statistics()["relation_deliveries"] == {"R1": 0, "R2": 0, "R3": 0}
        ingestor.ingest_batch(chunk)
        assert ingestor.statistics()["relation_deliveries"] == {"R1": 1, "R2": 0, "R3": 1}

    def test_bad_tuple_leaves_every_shard_untouched(self, line3_query):
        ingestor = ShardedIngestor(line3_query, k=5, num_shards=3, rng=random.Random(0))
        ingestor.ingest_batch([("R1", (1, 2))])
        with pytest.raises(KeyError):
            ingestor.ingest_batch([("R2", (2, 3)), ("NOPE", (0, 0))])
        with pytest.raises(ValueError):
            ingestor.ingest_batch([("R2", (2, 3)), ("R1", (1, 2, 3))])
        # Validation ran before any shard ingested: only the first batch is in.
        assert ingestor.tuples_ingested == 1
        assert sum(s.tuples_processed for s in ingestor.samplers) == 1

    def test_invalid_construction(self, line3_query):
        with pytest.raises(ValueError):
            ShardedIngestor(line3_query, k=0)
        with pytest.raises(ValueError):
            ShardedIngestor(line3_query, k=5, num_shards=0)

    def test_empty_batch_is_noop(self, line3_query):
        ingestor = ShardedIngestor(line3_query, k=5, num_shards=2)
        assert ingestor.ingest_batch([]) == 0
        assert ingestor.batches_ingested == 0
        assert ingestor.merged_sample() == []


class TestMixedChunkRouting:
    """One stream-order loop routes inserts and retractions alike."""

    # R1/R2 carry the partition attribute x2; R3 is broadcast.  The first
    # item is an early tombstone for an R1 row inserted later in the chunk.
    CHUNK = [
        StreamDelete("R1", (9, 9)),
        StreamTuple("R1", (1, 2)),
        ("R2", [2, 3]),
        StreamTuple("R3", (3, 4)),
        StreamTuple("R1", (5, 7)),
        StreamTuple("R2", (7, 1)),
        StreamTuple("R3", (1, 8)),
        StreamDelete("R1", (1, 2)),
        StreamDelete("R3", (3, 4)),
        StreamTuple("R2", (2, 6)),
        StreamTuple("R1", (9, 9)),
        StreamDelete("R2", (7, 1)),
    ]

    def make(self, query):
        return ShardedIngestor(
            query, 6, num_shards=3, chunk_size=64,
            factory=lambda shard, rng: TurnstileReservoirJoin(query, 6, rng=rng),
            rng=random.Random(5),
        )

    def test_deletes_follow_their_inserts(self, line3_query):
        ingestor = self.make(line3_query)
        parts = ingestor.partition(self.CHUNK)

        def payload(item):
            if isinstance(item, (StreamDelete, StreamTuple)):
                return item
            return (item[0], tuple(item[1]))

        def inserts(part):
            return {
                (p.relation, p.row) if isinstance(p, StreamTuple) else p
                for p in part
                if not isinstance(p, StreamDelete)
            }

        for item in self.CHUNK:
            if not isinstance(item, StreamDelete):
                continue
            insert = (item.relation, item.row)
            with_delete = [s for s, part in enumerate(parts) if item in part]
            with_insert = [s for s, part in enumerate(parts) if insert in inserts(part)]
            assert with_delete == with_insert
            expected = 3 if item.relation == "R3" else 1
            assert len(with_delete) == expected

        payloads = [payload(item) for item in self.CHUNK]
        for part in parts:  # stream order survives within every part
            order = [payloads.index(payload) for payload in part]
            assert order == sorted(order)
        assert ingestor.relation_deliveries == {"R1": 0, "R2": 0, "R3": 0}

    def test_ingest_matches_surviving_rows_per_shard(self, line3_query):
        ingestor = self.make(line3_query)
        parts = ingestor.partition(self.CHUNK)
        ingestor.ingest_batch(self.CHUNK)
        assert ingestor.relation_deliveries == {"R1": 5, "R2": 4, "R3": 3}
        for sampler, part in zip(ingestor.samplers, parts):
            live = surviving_rows(part)
            for relation in line3_query.relation_names:
                rows = set(sampler.index.database[relation].rows)
                assert rows == live.get(relation, set())
        live = surviving_rows(self.CHUNK)
        for relation in ("R1", "R2"):
            union = set()
            for sampler in ingestor.samplers:
                union |= set(sampler.index.database[relation].rows)
            assert union == live[relation]


# ---------------------------------------------------------------------- #
# The regenerated-key merge
# ---------------------------------------------------------------------- #
class TestMergedSample:
    def test_oversized_reservoir_returns_the_whole_join(self, line3_query):
        edges = make_edges(8, 24, seed=11)
        stream = make_graph_stream(line3_query, edges, seed=12)
        truth = ground_truth_keys(line3_query, stream)
        ingestor = ShardedIngestor(
            line3_query, k=len(truth) + 5, num_shards=4, chunk_size=16,
            rng=random.Random(1),
        )
        ingestor.ingest(stream)
        assert {result_key(r) for r in ingestor.merged_sample()} == truth
        assert sum(oracle_counts(ingestor)) == len(truth)

    def test_shard_counts_tile_the_global_join(self, line3_query):
        stream = line3_stream(line3_query, 150, seed=13, domain=6)
        truth = ground_truth_keys(line3_query, stream)
        ingestor = ShardedIngestor(
            line3_query, k=4, num_shards=3, chunk_size=32, rng=random.Random(2)
        )
        ingestor.ingest(stream)
        counts = oracle_counts(ingestor)
        assert sum(counts) == len(truth)
        # Each shard holds min(capacity, its count): what the merge's w
        # checks rely on without ever counting.
        for state, count in zip(ingestor.shard_states(), counts):
            assert len(state.sample) == min(state.capacity, count)
            assert math.isinf(state.w) == (count < state.capacity)

    def test_small_k_size_and_containment(self, line3_query):
        stream = line3_stream(line3_query, 150, seed=17, domain=6)
        truth = ground_truth_keys(line3_query, stream)
        assert len(truth) > 10
        ingestor = ShardedIngestor(
            line3_query, k=6, num_shards=4, chunk_size=32, rng=random.Random(3)
        )
        ingestor.ingest(stream)
        for _ in range(5):  # repeated draws from the same shard state
            sample = ingestor.merged_sample()
            assert len(sample) == 6
            keys = {result_key(r) for r in sample}
            assert len(keys) == 6  # without replacement
            assert keys <= truth

    def test_explicit_k_and_rng(self, line3_query):
        stream = line3_stream(line3_query, 120, seed=19, domain=6)
        ingestor = ShardedIngestor(
            line3_query, k=8, num_shards=2, chunk_size=32, rng=random.Random(4)
        )
        ingestor.ingest(stream)
        a = ingestor.merged_sample(k=3, rng=random.Random(42))
        b = ingestor.merged_sample(k=3, rng=random.Random(42))
        assert [result_key(r) for r in a] == [result_key(r) for r in b]
        with pytest.raises(ValueError):
            ingestor.merged_sample(k=0)

    def test_k_beyond_capacity_rejected_only_when_a_shard_overflows(self, line3_query):
        stream = line3_stream(line3_query, 200, seed=23, domain=5)
        ingestor = ShardedIngestor(
            line3_query, k=3, num_shards=2, chunk_size=64, rng=random.Random(5)
        )
        ingestor.ingest(stream)
        assert any(c > 3 for c in oracle_counts(ingestor))  # shards overflow k
        with pytest.raises(ValueError):
            ingestor.merged_sample(k=10)

    def test_cyclic_replicas_via_custom_factory(self, triangle_query):
        """Sharding works for cyclic samplers too (exact counts via bag join)."""
        edges = make_edges(7, 20, seed=29)
        stream = make_graph_stream(triangle_query, edges, seed=31)
        truth = ground_truth_keys(triangle_query, stream)
        if not truth:
            pytest.skip("no triangles in this random instance")
        k_all = len(truth) + 3
        ingestor = ShardedIngestor(
            triangle_query,
            k=k_all,
            num_shards=3,
            chunk_size=16,
            factory=lambda shard, rng: CyclicReservoirJoin(triangle_query, k_all, rng=rng),
            rng=random.Random(6),
        )
        ingestor.ingest(stream)
        assert {result_key(r) for r in ingestor.merged_sample()} == truth

    def test_full_shard_holds_w_as_its_largest_key(self):
        """At capacity 1 a full shard's only key is its ``w``, so the merge
        keeps the shard with the smaller ``w`` every time."""
        low, high = ShardState([{"x": 0}], 0.2, 1), ShardState([{"x": 1}], 0.7, 1)
        rng = random.Random(0)
        for _ in range(50):
            assert merge_shard_samples([high, low], 1, rng) == [{"x": 0}]

    def test_merge_rejects_inconsistent_shards(self, line3_query):
        rows = [{"x": i} for i in range(4)]
        rng = random.Random(0)
        with pytest.raises(RuntimeError):  # w finite, reservoir not full
            merge_shard_samples([ShardState(rows[:3], 0.5, 4)], 2, rng)
        with pytest.raises(RuntimeError):  # w unset, reservoir full
            merge_shard_samples([ShardState(rows, math.inf, 4)], 2, rng)
        with pytest.raises(ValueError):  # a full shard below the merge size
            merge_shard_samples([ShardState(rows, 0.5, 4)], 5, rng)
        assert len(merge_shard_samples([ShardState(rows, 0.5, 4)], 4, rng)) == 4

        class NoReservoir:
            sample = []

            def insert_batch(self, items):
                pass

        ingestor = ShardedIngestor(
            line3_query, k=4, num_shards=2, factory=lambda shard, rng: NoReservoir()
        )
        with pytest.raises(TypeError, match="exposes no reservoir"):
            ingestor.merged_sample()


# ---------------------------------------------------------------------- #
# No count pass: the merge and a served sharded cut never call count_results
# ---------------------------------------------------------------------- #
def _forbid_count_results(monkeypatch):
    """Make every binding of ``count_results`` raise."""

    def forbidden(query, database):
        raise AssertionError("count_results ran during a sharded merge")

    for module in list(sys.modules.values()):
        if getattr(module, "count_results", None) is count_results:
            monkeypatch.setattr(module, "count_results", forbidden)


@pytest.mark.parametrize("kind", ["insert-only", "turnstile", "windowed"])
def test_merge_and_served_cut_run_no_count_pass(line3_query, monkeypatch, kind):
    factories = {
        "insert-only": lambda shard, rng: ReservoirJoin(line3_query, 6, rng=rng),
        "turnstile": lambda shard, rng: TurnstileReservoirJoin(line3_query, 6, rng=rng),
        "windowed": lambda shard, rng: WindowedSampler(
            line3_query, 6, window=60, rng=rng, mode="timestamp"
        ),
    }
    rng = random.Random(43)
    stream = []
    for ts in range(1, 241):
        item = StreamTuple(
            rng.choice(line3_query.relation_names),
            (rng.randrange(6), rng.randrange(6)),
            ts,
        )
        stream.append(item)
        if kind == "turnstile" and ts % 5 == 0:
            stream.append(StreamDelete(item.relation, item.row))

    def build():
        return ShardedIngestor(
            line3_query, 6, num_shards=3, chunk_size=16,
            factory=factories[kind], rng=random.Random(44),
        )

    ingestor, server = build(), SampleServer(build(), rng=random.Random(45))
    ingestor.ingest(stream)
    server.ingest(stream)
    assert all(len(sampler.sample) == 6 for sampler in ingestor.samplers)
    if kind != "insert-only":
        assert any(
            sampler.statistics()["evictions"] for sampler in ingestor.samplers
        )
    _forbid_count_results(monkeypatch)
    assert len(ingestor.merged_sample()) == 6
    assert len(server.snapshot().sample()) == 6
