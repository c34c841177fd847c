"""Tests for the batched ingestion subsystem (``repro.ingest``).

Covers the ``BatchIngestor`` driver, the ``insert_batch`` APIs on every
sampler, the bulk index maintenance (``DynamicJoinIndex.insert_rows``), and
the edge cases the ISSUE calls out: empty batches, single-tuple batches,
batches larger than the reservoir, duplicate tuples within one batch, and
tuples for relations outside the query (documented behaviour: ``KeyError``
before any state changes).
"""

from __future__ import annotations

import random

import pytest

from repro import (
    BatchIngestor,
    CyclicReservoirJoin,
    JoinQuery,
    ReservoirJoin,
    SJoin,
    StreamTuple,
    SymmetricHashJoinSampler,
    TurnstileReservoirJoin,
)
from repro.core.backend import PerTupleBatchMixin, SamplerBackend, chunk_apply
from repro.relational.stream import chunk_stream

from tests.conftest import make_edges, make_graph_stream
from tests.naive import NaiveRecomputeSampler
from tests.oracles import ground_truth_keys, result_key, validate_index


def line3_stream(query, n, seed, domain=12):
    rng = random.Random(seed)
    names = query.relation_names
    return [
        StreamTuple(rng.choice(names), (rng.randrange(domain), rng.randrange(domain)))
        for _ in range(n)
    ]


class PerTupleOnly(PerTupleBatchMixin):
    """A sampler with only a per-tuple ``insert``, adapted to the chunk seam
    by the mixin; it records every tuple that reaches ``insert``."""

    sample = []

    def __init__(self, query):
        self.query = query
        self.seen = []
        self.tuples_processed = 0
        self.duplicates_ignored = 0

    def insert(self, relation, row):
        self.tuples_processed += 1
        self.seen.append((relation, row))


# ---------------------------------------------------------------------- #
# chunk_stream / BatchIngestor mechanics
# ---------------------------------------------------------------------- #
class TestChunked:
    def test_even_chunks(self):
        assert list(chunk_stream(range(6), 2)) == [[0, 1], [2, 3], [4, 5]]

    def test_ragged_tail(self):
        assert list(chunk_stream(range(5), 2)) == [[0, 1], [2, 3], [4]]

    def test_empty(self):
        assert list(chunk_stream([], 3)) == []

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            list(chunk_stream(range(3), 0))

    def test_generator_input_is_consumed_lazily(self):
        """A one-shot generator works, and only one chunk is buffered at a time."""
        pulled = []

        def source():
            for i in range(7):
                pulled.append(i)
                yield i

        chunks = chunk_stream(source(), 3)
        assert next(chunks) == [0, 1, 2]
        assert pulled == [0, 1, 2]  # nothing beyond the first chunk yet
        assert list(chunks) == [[3, 4, 5], [6]]

    def test_size_larger_than_stream_yields_single_chunk(self):
        assert list(chunk_stream(range(4), 100)) == [[0, 1, 2, 3]]

    def test_size_one_degenerates_to_singletons(self):
        assert list(chunk_stream("ab", 1)) == [["a"], ["b"]]


class TestBatchIngestor:
    def test_invalid_chunk_size(self, line3_query):
        sampler = ReservoirJoin(line3_query, 5)
        with pytest.raises(ValueError):
            BatchIngestor(sampler, chunk_size=0)

    def test_counts_batches_and_tuples(self, line3_query):
        stream = line3_stream(line3_query, 100, seed=3)
        ingestor = BatchIngestor(ReservoirJoin(line3_query, 5), chunk_size=32)
        ingestor.ingest(stream)
        assert ingestor.tuples_ingested == 100
        assert ingestor.batches_ingested == 4  # 32+32+32+4
        stats = ingestor.statistics()
        assert stats["tuples_ingested"] == 100
        assert stats["tuples_processed"] == 100

    def test_empty_chunk_is_noop(self, line3_query):
        ingestor = BatchIngestor(ReservoirJoin(line3_query, 5), chunk_size=8)
        assert ingestor.ingest_batch([]) == 0
        assert ingestor.batches_ingested == 0

    def test_fallback_to_per_tuple_insert(self, line3_query):
        """A per-tuple sampler rides the seam through PerTupleBatchMixin;
        without it the seam refuses the sampler and names the mixin."""

        class InsertOnly:
            sample = []

            def insert(self, relation, row):
                raise AssertionError("the seam never drives insert itself")

        with pytest.raises(TypeError, match="PerTupleBatchMixin"):
            BatchIngestor(InsertOnly(), chunk_size=4)

        sampler = PerTupleOnly(line3_query)
        ingestor = BatchIngestor(sampler, chunk_size=4)
        stream = line3_stream(line3_query, 10, seed=5)
        ingestor.ingest(stream)
        assert sampler.seen == [(item.relation, item.row) for item in stream]

    def test_accepts_plain_pairs(self, line3_query):
        sampler = ReservoirJoin(line3_query, 5, rng=random.Random(0))
        BatchIngestor(sampler, chunk_size=4).ingest_batch(
            [("R1", (1, 2)), ("R2", (2, 3)), ("R3", (3, 4))]
        )
        assert sampler.index.size == 3

    def test_generator_stream_through_insert_batch(self, line3_query):
        """Ingesting a one-shot generator matches ingesting the listed stream."""
        stream = line3_stream(line3_query, 50, seed=7)
        from_list = ReservoirJoin(line3_query, 5, rng=random.Random(1))
        BatchIngestor(from_list, chunk_size=8).ingest(list(stream))
        from_generator = ReservoirJoin(line3_query, 5, rng=random.Random(1))
        BatchIngestor(from_generator, chunk_size=8).ingest(item for item in stream)
        assert [result_key(r) for r in from_generator.sample] == [
            result_key(r) for r in from_list.sample
        ]
        assert from_generator.statistics() == from_list.statistics()

    def test_generator_stream_through_the_fallback(self, line3_query):
        sampler = PerTupleOnly(line3_query)
        stream = line3_stream(line3_query, 10, seed=9)
        BatchIngestor(sampler, chunk_size=3).ingest(item for item in stream)
        assert sampler.seen == [(item.relation, item.row) for item in stream]

    def test_chunk_size_larger_than_stream(self, line3_query):
        stream = line3_stream(line3_query, 5, seed=11)
        ingestor = BatchIngestor(
            ReservoirJoin(line3_query, 5, rng=random.Random(2)), chunk_size=1000
        )
        ingestor.ingest(stream)
        assert ingestor.batches_ingested == 1
        assert ingestor.tuples_ingested == 5

    def test_fallback_accepts_plain_pairs(self, line3_query):
        sampler = PerTupleOnly(line3_query)
        ingestor = BatchIngestor(sampler, chunk_size=2)
        assert ingestor.ingest_batch([("R1", [1, 2]), ("R2", (2, 3))]) == 2
        # Rows are normalised to tuples on the way through.
        assert sampler.seen == [("R1", (1, 2)), ("R2", (2, 3))]
        assert sampler.insert_batch([("R3", [3, 4])]) == 1

    def test_destructive_single_backend_counters_stay_honest(self):
        """Counters describe what was delivered, not what the backend left.

        The backend receives the ingestor's own list through whichever
        chunk method the probe picked; if it consumes that list
        destructively, the chunk size must still be counted from before
        dispatch.
        """

        class Destructive:
            def insert_batch(self, items):
                items.clear()

            sample = []

        class DestructiveSegmenter:
            def ingest_batch(self, items):
                items.clear()

            sample = []

        for backend, mode in (
            (Destructive(), "insert_batch"),
            (DestructiveSegmenter(), "ingest_batch"),
        ):
            assert chunk_apply(backend)[1] == mode
            ingestor = BatchIngestor(backend, chunk_size=16)
            pushed = ingestor.ingest_batch(
                [StreamTuple("R1", (1, 2)), StreamTuple("R2", (2, 3))]
            )
            assert pushed == 2
            assert ingestor.tuples_ingested == 2
            assert ingestor.batches_ingested == 1

    def test_per_tuple_fallback_validates_before_mutating(self, line3_query):
        """The per-tuple adapter validates the whole chunk against the query."""
        backend = PerTupleOnly(line3_query)
        ingestor = BatchIngestor(backend, chunk_size=8)
        with pytest.raises(KeyError):
            ingestor.ingest_batch([("R1", (1, 2)), ("BOGUS", (3, 4))])
        with pytest.raises(ValueError):
            ingestor.ingest_batch([("R1", (1, 2)), ("R2", (3, 4, 5))])
        assert backend.seen == []  # the bad chunks never reached insert()
        assert ingestor.tuples_ingested == 0


# ---------------------------------------------------------------------- #
# The backend protocol, and several samplers fed from one pass
# ---------------------------------------------------------------------- #
class TestBackendProtocol:
    def test_samplers_conform_to_the_backend_protocol(self, line3_query):
        """Every sampler satisfies SamplerBackend and is fully capable."""
        for sampler in (
            ReservoirJoin(line3_query, 3),
            CyclicReservoirJoin(line3_query, 3),
            SJoin(line3_query, 3),
            SymmetricHashJoinSampler(line3_query, 3),
            NaiveRecomputeSampler(line3_query, 3),
        ):
            assert isinstance(sampler, SamplerBackend), type(sampler).__name__
            for name in ("insert", "insert_batch", "statistics"):
                assert callable(getattr(sampler, name, None)), name
            assert hasattr(sampler, "sample")

    def test_single_backend_bit_identical_to_standalone(self, line3_query):
        """One sampler fed chunk by chunk through chunk_apply ends
        bit-identical to a standalone BatchIngestor run under the same
        seed and chunk size."""
        stream = line3_stream(line3_query, 300, seed=3, domain=8)
        fed = ReservoirJoin(line3_query, 7, rng=random.Random(5))
        apply, mode = chunk_apply(fed)
        assert mode == "insert_batch"
        for chunk in chunk_stream(stream, 16):
            apply(chunk)

        alone = ReservoirJoin(line3_query, 7, rng=random.Random(5))
        BatchIngestor(alone, chunk_size=16).ingest(stream)
        assert fed.sample and fed.sample == alone.sample
        assert fed.statistics() == alone.statistics()

    def test_mixed_backends_recover_the_exact_result_set(self, line3_query):
        """The documented multi-sampler loop: one chunked pass, each
        chunk handed to every backend through chunk_apply.  Each backend
        ends bit-identical to its own standalone run and, with an
        over-sized reservoir, holds exactly the join's result set."""
        stream = line3_stream(line3_query, 240, seed=11, domain=5)
        truth = ground_truth_keys(line3_query, stream)
        assert truth
        k_all = len(truth) + 5
        builders = {
            "acyclic": lambda rng: ReservoirJoin(line3_query, k_all, rng=rng),
            "cyclic": lambda rng: CyclicReservoirJoin(line3_query, k_all, rng=rng),
            "baseline": lambda rng: SymmetricHashJoinSampler(
                line3_query, k_all, rng=rng
            ),
            "turnstile": lambda rng: TurnstileReservoirJoin(
                line3_query, k_all, rng=rng
            ),
        }
        backends = {
            name: build(random.Random(seed))
            for seed, (name, build) in enumerate(builders.items())
        }
        modes = {name: chunk_apply(b)[1] for name, b in backends.items()}
        assert modes["turnstile"] == "ingest_batch"
        assert modes["acyclic"] == "insert_batch"
        applies = [chunk_apply(backend)[0] for backend in backends.values()]
        for chunk in chunk_stream(stream, 32):
            for apply in applies:
                apply(chunk)

        for seed, (name, build) in enumerate(builders.items()):
            alone = build(random.Random(seed))
            assert {result_key(r) for r in backends[name].sample} == truth, name
            BatchIngestor(alone, chunk_size=32).ingest(stream)
            assert backends[name].sample == alone.sample, name
            assert backends[name].statistics() == alone.statistics(), name


# ---------------------------------------------------------------------- #
# insert_batch edge cases (documented behaviour)
# ---------------------------------------------------------------------- #
class TestInsertBatchEdgeCases:
    def test_empty_batch(self, line3_query):
        sampler = ReservoirJoin(line3_query, 5)
        assert sampler.insert_batch([]) == 0
        assert sampler.tuples_processed == 0
        assert sampler.sample == []

    def test_single_tuple_batch_matches_insert(self, line3_query):
        batched = ReservoirJoin(line3_query, 5, rng=random.Random(1))
        pertuple = ReservoirJoin(line3_query, 5, rng=random.Random(1))
        stream = line3_stream(line3_query, 60, seed=11)
        for item in stream:
            batched.insert_batch([item])
            pertuple.insert(item.relation, item.row)
        # Chunk size 1 is exact per-tuple semantics: same RNG consumption,
        # same reservoir.
        assert [result_key(r) for r in batched.sample] == [
            result_key(r) for r in pertuple.sample
        ]
        assert batched.statistics() == pertuple.statistics()

    def test_batch_larger_than_reservoir(self, line3_query):
        stream = line3_stream(line3_query, 400, seed=13)
        sampler = ReservoirJoin(line3_query, 3, rng=random.Random(2))
        sampler.insert_batch(stream)  # one batch, far larger than k=3
        truth = ground_truth_keys(line3_query, stream)
        assert sampler.sample_size == min(3, len(truth))
        assert {result_key(r) for r in sampler.sample} <= truth

    def test_duplicates_within_one_batch(self, line3_query):
        sampler = ReservoirJoin(line3_query, 5, rng=random.Random(3))
        inserted = sampler.insert_batch(
            [("R1", (1, 2)), ("R1", (1, 2)), ("R1", (1, 2)), ("R2", (2, 3))]
        )
        assert inserted == 2
        assert sampler.duplicates_ignored == 2
        assert sampler.index.size == 2
        # Re-sending the same batch inserts nothing new.
        assert sampler.insert_batch([("R1", (1, 2))]) == 0
        assert sampler.duplicates_ignored == 3

    def test_unknown_relation_raises_and_leaves_state_untouched(self, line3_query):
        sampler = ReservoirJoin(line3_query, 5, rng=random.Random(4))
        sampler.insert("R1", (1, 2))
        with pytest.raises(KeyError):
            sampler.insert_batch([("R1", (5, 6)), ("NOPE", (1, 2))])
        # Validation happens before any mutation: the good tuple of the
        # failed batch was not absorbed either.
        assert sampler.tuples_processed == 1
        assert sampler.index.size == 1

    def test_bad_arity_row_raises_and_leaves_state_untouched(self, line3_query):
        sampler = ReservoirJoin(line3_query, 5, rng=random.Random(6))
        sampler.insert("R1", (1, 2))
        with pytest.raises(ValueError):
            sampler.insert_batch([("R1", (5, 6)), ("R1", (1, 2, 3))])
        assert sampler.tuples_processed == 1
        assert sampler.index.size == 1
        # The good row of the failed batch was not half-absorbed: inserting
        # it now must go through the full index path, not hit dedup.
        sampler.insert("R1", (5, 6))
        assert sampler.index.size == 2

    def test_insert_many_validates_before_mutating(self, line3_query):
        from repro.relational import Database

        database = Database(line3_query)
        with pytest.raises(ValueError):
            database["R1"].insert_many([(1, 2), (3, 4, 5)])
        assert len(database["R1"]) == 0  # nothing was stored
        assert database["R1"].insert((1, 2))  # not poisoned by the failure

    def test_unknown_relation_other_samplers(self, line3_query, triangle_query):
        for sampler in (
            CyclicReservoirJoin(triangle_query, 5),
            SJoin(line3_query, 5),
            SymmetricHashJoinSampler(line3_query, 5),
            NaiveRecomputeSampler(line3_query, 5),
        ):
            with pytest.raises(KeyError):
                sampler.insert_batch([("NOPE", (1, 2))])

    def test_bad_arity_other_samplers_rejects_whole_chunk(self, line3_query):
        """Wrong arity raises before any mutation — baselines included.

        The whole-chunk pre-mutation contract of ``insert_batch`` (good
        tuple first, bad tuple later: nothing may leak in), which the
        fan-out's rejection classification relies on.
        """
        for sampler in (
            SJoin(line3_query, 5),
            SymmetricHashJoinSampler(line3_query, 5),
            NaiveRecomputeSampler(line3_query, 5),
        ):
            with pytest.raises(ValueError):
                sampler.insert_batch([("R1", (1, 2)), ("R1", (1, 2, 3))])
            assert sampler.statistics()["tuples_processed"] == 0, type(sampler)


# ---------------------------------------------------------------------- #
# Equivalence of the batched fast path with per-tuple processing
# ---------------------------------------------------------------------- #
class TestBatchedEquivalence:
    def assert_same_index_state(self, a: ReservoirJoin, b: ReservoirJoin) -> None:
        """Final counters/buckets must be identical across ingestion modes."""
        assert a.index.size == b.index.size
        assert a.index.families.keys() == b.index.families.keys()
        for edge, families_a in a.index.families.items():
            families_b = b.index.families[edge]
            for key in set(families_a) | set(families_b):
                cnt_a = families_a[key].cnt if key in families_a else 0
                cnt_b = families_b[key].cnt if key in families_b else 0
                assert cnt_a == cnt_b, (edge, key, cnt_a, cnt_b)
                approx_a = families_a[key].approx if key in families_a else 0
                approx_b = families_b[key].approx if key in families_b else 0
                assert approx_a == approx_b
        validate_index(b.index)

    @pytest.mark.parametrize("grouping", [False, True])
    @pytest.mark.parametrize("maintain_root", [False, True])
    def test_index_state_matches_per_tuple(self, line3_query, grouping, maintain_root):
        stream = line3_stream(line3_query, 500, seed=17)
        pertuple = ReservoirJoin(
            line3_query, 40, rng=random.Random(1), grouping=grouping, maintain_root=maintain_root
        )
        for item in stream:
            pertuple.insert(item.relation, item.row)
        batched = ReservoirJoin(
            line3_query, 40, rng=random.Random(9), grouping=grouping, maintain_root=maintain_root
        )
        BatchIngestor(batched, chunk_size=64).ingest(stream)
        self.assert_same_index_state(pertuple, batched)
        truth = ground_truth_keys(line3_query, stream)
        assert {result_key(r) for r in batched.sample} <= truth
        assert batched.sample_size == min(40, len(truth))

    def test_star_query_with_grouping(self, star3_query):
        edges = make_edges(10, 25, seed=23)
        stream = make_graph_stream(star3_query, edges, seed=29)
        pertuple = ReservoirJoin(star3_query, 25, rng=random.Random(1), grouping=True)
        for item in stream:
            pertuple.insert(item.relation, item.row)
        batched = ReservoirJoin(star3_query, 25, rng=random.Random(2), grouping=True)
        batched.insert_batch(stream)
        assert pertuple.index.size == batched.index.size
        validate_index(batched.index)
        truth = ground_truth_keys(star3_query, stream)
        assert {result_key(r) for r in batched.sample} <= truth

    def test_cyclic_insert_batch(self, triangle_query):
        edges = make_edges(9, 20, seed=31)
        stream = make_graph_stream(triangle_query, edges, seed=37)
        sampler = CyclicReservoirJoin(triangle_query, 15, rng=random.Random(5))
        BatchIngestor(sampler, chunk_size=16).ingest(stream)
        truth = ground_truth_keys(triangle_query, stream)
        assert {result_key(r) for r in sampler.sample} <= truth
        assert sampler.sample_size == min(15, len(truth))

    def test_naive_insert_batch_recomputes_once_per_batch(self, two_table_query):
        stream = [
            StreamTuple("R1", (1, 1)),
            StreamTuple("R2", (1, 2)),
            StreamTuple("R1", (2, 3)),
            StreamTuple("R2", (3, 4)),
        ]
        sampler = NaiveRecomputeSampler(two_table_query, 10, rng=random.Random(0))
        sampler.insert_batch(stream)
        assert sampler.recomputations == 1
        truth = ground_truth_keys(two_table_query, stream)
        assert {result_key(r) for r in sampler.sample} == truth

    def test_sjoin_and_symmetric_insert_batch(self, line3_query):
        stream = line3_stream(line3_query, 200, seed=41)
        truth = ground_truth_keys(line3_query, stream)
        for sampler in (
            SJoin(line3_query, 20, rng=random.Random(1)),
            SymmetricHashJoinSampler(line3_query, 20, rng=random.Random(2)),
        ):
            BatchIngestor(sampler, chunk_size=32).ingest(stream)
            assert {result_key(r) for r in sampler.sample} <= truth
            assert sampler.sample_size == min(20, len(truth))

    def test_foreign_key_combiner_batch(self):
        query = JoinQuery.from_spec(
            "fact-dim",
            {"F": ["a", "d"], "D": ["d", "e"]},
            keys={"D": ["d"]},
        )
        rng = random.Random(43)
        stream = []
        for d in range(8):
            stream.append(StreamTuple("D", (d, rng.randrange(4))))
        for _ in range(60):
            stream.append(StreamTuple("F", (rng.randrange(10), rng.randrange(8))))
        rng.shuffle(stream)
        pertuple = ReservoirJoin(query, 30, rng=random.Random(1), foreign_key=True)
        for item in stream:
            pertuple.insert(item.relation, item.row)
        batched = ReservoirJoin(query, 30, rng=random.Random(2), foreign_key=True)
        BatchIngestor(batched, chunk_size=16).ingest(stream)
        assert batched._combiner is not None  # rewriting actually happened
        truth = ground_truth_keys(query, stream)
        assert {result_key(r) for r in batched.sample} <= truth
        assert batched.sample_size == pertuple.sample_size == min(30, len(truth))


# ---------------------------------------------------------------------- #
# Bulk index insertion
# ---------------------------------------------------------------------- #
class TestBucketFamilyFastPaths:
    def test_insert_many_deduplicates(self, line3_query):
        from repro.index.dynamic_index import DynamicJoinIndex

        index = DynamicJoinIndex(line3_query, maintain_root=False)
        new = index.insert_rows("R1", [(1, 2), (1, 2), (3, 4)])
        assert new == [(1, 2), (3, 4)]
        assert index.duplicates_ignored == 1
        assert index.insert_rows("R1", [(1, 2)]) == []
        assert index.duplicates_ignored == 2
        with pytest.raises(KeyError):
            index.insert_rows("NOPE", [(1, 2)])
