"""Edge cases and failure-injection tests across the public API."""

import random

import pytest

from repro import (
    BatchedPredicateReservoir,
    CyclicReservoirJoin,
    DynamicJoinIndex,
    JoinQuery,
    ReservoirJoin,
    TurnstileReservoirJoin,
    WindowedSampler,
)
from repro.baselines import SJoin, SymmetricHashJoinSampler
from repro.core.skippable import ListBatch
from repro.relational import StreamTuple

from tests.conftest import make_edges, make_graph_stream
from tests.naive import NaiveRecomputeSampler
from tests.oracles import ground_truth, result_key


class TestDegenerateQueries:
    def test_single_relation_query_is_plain_reservoir(self):
        """With no join, the sampler degenerates to classic reservoir sampling."""
        query = JoinQuery.from_spec("single", {"R": ["x", "y"]})
        sampler = ReservoirJoin(query, k=5, rng=random.Random(0))
        for value in range(50):
            sampler.insert("R", (value, value + 1))
        assert sampler.sample_size == 5
        assert all(result["y"] == result["x"] + 1 for result in sampler.sample)

    def test_cross_product_query(self):
        """Relations sharing no attributes form a Cartesian product."""
        query = JoinQuery.from_spec("cross", {"A": ["x"], "B": ["y"]})
        sampler = ReservoirJoin(query, k=100, rng=random.Random(1))
        for value in range(4):
            sampler.insert("A", (value,))
        for value in range(5):
            sampler.insert("B", (value,))
        truth = {(("x", a), ("y", b)) for a in range(4) for b in range(5)}
        assert {result_key(r) for r in sampler.sample} == truth

    def test_identical_relation_schemas(self):
        """Two roles over the same attribute set form an intersection join."""
        query = JoinQuery.from_spec("same", {"A": ["x", "y"], "B": ["x", "y"]})
        sampler = ReservoirJoin(query, k=100, rng=random.Random(2))
        sampler.insert("A", (1, 2))
        sampler.insert("A", (3, 4))
        sampler.insert("B", (1, 2))
        assert {result_key(r) for r in sampler.sample} == {result_key({"x": 1, "y": 2})}

    def test_k_equals_one(self, line3_query):
        edges = make_edges(5, 14, seed=501)
        stream = make_graph_stream(line3_query, edges, seed=502)
        truth = {result_key(r) for r in ground_truth(line3_query, stream)}
        sampler = ReservoirJoin(line3_query, k=1, rng=random.Random(3)).process(stream)
        assert sampler.sample_size == (1 if truth else 0)
        if truth:
            assert result_key(sampler.sample[0]) in truth

    def test_empty_stream(self, line3_query):
        sampler = ReservoirJoin(line3_query, k=5, rng=random.Random(4))
        assert sampler.sample == []
        assert sampler.statistics()["simulated_stream_length"] == 0


class TestInputValidation:
    def test_reservoir_join_rejects_cyclic_query(self, triangle_query):
        with pytest.raises(ValueError):
            ReservoirJoin(triangle_query, k=5)

    def test_reservoir_join_rejects_bad_k(self, line3_query):
        with pytest.raises(ValueError):
            ReservoirJoin(line3_query, k=0)

    def test_unknown_relation_in_insert(self, line3_query):
        sampler = ReservoirJoin(line3_query, k=5, rng=random.Random(0))
        with pytest.raises(KeyError):
            sampler.insert("missing", (1, 2))

    def test_wrong_arity_insert(self, line3_query):
        sampler = ReservoirJoin(line3_query, k=5, rng=random.Random(0))
        with pytest.raises(ValueError):
            sampler.insert("R1", (1, 2, 3))

    @pytest.mark.parametrize(
        "make",
        [
            lambda q: ReservoirJoin(q, 4, rng=random.Random(0)),
            lambda q: ReservoirJoin(q, 4, rng=random.Random(0), foreign_key=True),
            lambda q: SJoin(q, 4, rng=random.Random(0)),
            lambda q: SJoin(q, 4, rng=random.Random(0), foreign_key=True),
            lambda q: SymmetricHashJoinSampler(q, 4, rng=random.Random(0)),
            lambda q: ReservoirJoin(q, 4, rng=random.Random(0), grouping=True),
            lambda q: TurnstileReservoirJoin(q, 4, rng=random.Random(0)),
            lambda q: WindowedSampler(q, 4, window=8, rng=random.Random(0)),
            lambda q: CyclicReservoirJoin(q, 4, rng=random.Random(0)),
            lambda q: NaiveRecomputeSampler(q, 4, rng=random.Random(0)),
        ],
        ids=[
            "rsjoin", "rsjoin-fk", "sjoin", "sjoin-fk", "symmetric",
            "rsjoin-grouping", "turnstile", "windowed", "cyclic", "naive",
        ],
    )
    def test_rejected_per_tuple_insert_is_not_counted(self, make):
        """A per-tuple ``insert`` that raises leaves ``tuples_processed``
        where it was, as a rejected ``insert_batch`` does."""
        query = JoinQuery.from_spec(
            "keyed", {"R": ["a", "b"], "S": ["b", "c"]}, keys={"S": ["b"]}
        )
        sampler = make(query)
        fresh = sampler.statistics()
        with pytest.raises(KeyError):
            sampler.insert("T", (1, 2))
        with pytest.raises(ValueError):
            sampler.insert("R", (1, 2, 3))
        assert sampler.statistics() == fresh
        sampler.insert("R", (1, 2))
        sampler.insert("R", (1, 2))
        assert sampler.statistics()["tuples_processed"] == 2

    def test_predicate_reservoir_rejects_bad_k(self):
        with pytest.raises(ValueError):
            BatchedPredicateReservoir(0)
        with pytest.raises(ValueError):
            BatchedPredicateReservoir(-1)


class TestInterleavedReadsAndWrites:
    def test_sample_can_be_read_between_every_insert(self, two_table_query):
        """Reading the reservoir mid-stream must not disturb the sampler."""
        edges = make_edges(4, 10, seed=503)
        stream = make_graph_stream(two_table_query, edges, seed=504)
        sampler = ReservoirJoin(two_table_query, k=4, rng=random.Random(5))
        snapshots = []
        for item in stream:
            sampler.insert(item.relation, item.row)
            snapshots.append(len(sampler.sample))
        assert snapshots == sorted(snapshots)  # the reservoir only ever grows to k

    def test_index_sampling_interleaved_with_inserts(self, line3_query):
        index = DynamicJoinIndex(line3_query, maintain_root=True)
        rng = random.Random(6)
        edges = make_edges(5, 20, seed=505)
        stream = make_graph_stream(line3_query, edges, seed=506)
        for item in stream:
            index.insert(item.relation, item.row)
            sample = index.sample(rng)
            if sample is not None:
                assert set(sample) == set(line3_query.output_attrs())
        index.validate()


class TestBatchReservoirRobustness:
    def test_alternating_tiny_and_huge_batches(self):
        sampler = BatchedPredicateReservoir(8, rng=random.Random(7))
        rng = random.Random(8)
        total_real = 0
        for round_index in range(30):
            if round_index % 2 == 0:
                items = [round_index]
                total_real += 1
            else:
                items = [None] * rng.randrange(1, 50) + [round_index]
                total_real += 1
            sampler.process_batch(ListBatch(items))
        assert len(sampler) == 8
        assert all(item is not None for item in sampler.sample)

    def test_statistics_are_consistent(self):
        sampler = BatchedPredicateReservoir(3, rng=random.Random(9))
        for value in range(100):
            sampler.process_batch(ListBatch([value, None]))
        assert sampler.items_total == 200
        assert sampler.items_examined <= sampler.items_total
        assert sampler.real_stops >= 3
