"""Tests for reservoir sampling over cyclic joins (Section 5)."""

import random

import pytest

from repro.cyclic.cyclic_join import CyclicReservoirJoin
from repro.cyclic.ghd import GHD
from repro.relational import Database, JoinQuery, StreamTuple, delta_results
from repro.workloads.graph import dumbbell_query, triangle_query

from tests.conftest import make_edges, make_graph_stream
from tests.oracles import ground_truth, result_key, uniformity_p_value


def replay(query, stream, k, seed, **kwargs):
    sampler = CyclicReservoirJoin(query, k, rng=random.Random(seed), **kwargs)
    for item in stream:
        sampler.insert(item.relation, item.row)
    return sampler


class TestTriangle:
    def test_small_triangle_join_collected_entirely(self):
        query = triangle_query()
        edges = make_edges(6, 18, seed=201)
        stream = make_graph_stream(query, edges, seed=202)
        truth = {result_key(r) for r in ground_truth(query, stream)}
        sampler = replay(query, stream, k=100_000, seed=203)
        assert {result_key(r) for r in sampler.sample} == truth

    def test_sample_capped_and_real(self):
        query = triangle_query()
        edges = make_edges(7, 25, seed=204)
        stream = make_graph_stream(query, edges, seed=205)
        truth = {result_key(r) for r in ground_truth(query, stream)}
        sampler = replay(query, stream, k=5, seed=206)
        assert sampler.sample_size == min(5, len(truth))
        assert all(result_key(r) in truth for r in sampler.sample)

    def test_uniformity(self):
        query = triangle_query()
        edges = make_edges(6, 20, seed=207)
        stream = make_graph_stream(query, edges, seed=208)
        universe = ground_truth(query, stream)
        assert len(universe) > 3

        def run(seed):
            return replay(query, stream, k=3, seed=seed).sample

        assert uniformity_p_value(run, universe, trials=300, sample_size=3) > 1e-3

    def test_width_reported(self):
        query = triangle_query()
        sampler = CyclicReservoirJoin(query, 5, rng=random.Random(0))
        assert sampler.width == pytest.approx(1.5)


class TestDumbbell:
    def test_dumbbell_matches_ground_truth(self):
        query = dumbbell_query()
        # A small graph with a guaranteed dumbbell: two triangles + bridge.
        edges = [
            (1, 2), (2, 3), (1, 3),          # triangle A
            (4, 5), (5, 6), (4, 6),          # triangle B
            (3, 4),                          # bridge
            (2, 5), (1, 6),                  # extra noise edges
        ]
        stream = make_graph_stream(query, edges, seed=209)
        truth = {result_key(r) for r in ground_truth(query, stream)}
        assert truth  # the dumbbell must exist
        ghd = GHD(
            query,
            {
                "left": ["x1", "x2", "x3"],
                "bridge": ["x3", "x4"],
                "right": ["x4", "x5", "x6"],
            },
            [("left", "bridge"), ("bridge", "right")],
        )
        sampler = replay(query, stream, k=100_000, seed=210, ghd=ghd)
        assert {result_key(r) for r in sampler.sample} == truth


class TestAcyclicViaGhd:
    def test_acyclic_query_agrees_with_reservoir_join(self, line3_query):
        """On an acyclic query the GHD machinery degenerates gracefully."""
        edges = make_edges(5, 12, seed=211)
        stream = make_graph_stream(line3_query, edges, seed=212)
        truth = {result_key(r) for r in ground_truth(line3_query, stream)}
        sampler = replay(line3_query, stream, k=100_000, seed=213)
        assert {result_key(r) for r in sampler.sample} == truth

    def test_statistics_shape(self):
        query = triangle_query()
        edges = make_edges(5, 10, seed=214)
        stream = make_graph_stream(query, edges, seed=215)
        sampler = replay(query, stream, k=5, seed=216)
        stats = sampler.statistics()
        assert stats["tuples_processed"] == len(stream)
        assert stats["ghd_width"] == pytest.approx(1.5)
        assert stats["bag_tuples_inserted"] >= 0


class TestDuplicates:
    def test_duplicate_base_tuples_ignored(self):
        query = triangle_query()
        sampler = CyclicReservoirJoin(query, 5, rng=random.Random(0))
        sampler.insert("G1", (1, 2))
        sampler.insert("G1", (1, 2))
        assert sampler.duplicates_ignored == 1


class TestInsertBatchValidation:
    """Regression tests: a bad batch must not mutate the sampler at all.

    The original ``insert_batch`` validated relation names up front but let
    a wrong-arity row raise mid-loop, after earlier rows of the batch had
    already been absorbed — the partial-mutation bug class the acyclic path
    already guarded against.
    """

    def test_bad_arity_mid_batch_leaves_sampler_untouched(self):
        query = triangle_query()
        sampler = CyclicReservoirJoin(query, 5, rng=random.Random(0))
        sampler.insert("G1", (9, 10))
        before = sampler.statistics()
        with pytest.raises(ValueError):
            sampler.insert_batch([("G1", (1, 2)), ("G2", (1, 2, 3))])
        assert sampler.statistics() == before
        # The good row of the failed batch was not half-absorbed: inserting
        # it now must count as new, not as a duplicate.
        sampler.insert("G1", (1, 2))
        assert sampler.duplicates_ignored == 0

    def test_unknown_relation_mid_batch_leaves_sampler_untouched(self):
        query = triangle_query()
        sampler = CyclicReservoirJoin(query, 5, rng=random.Random(0))
        before = sampler.statistics()
        with pytest.raises(KeyError):
            sampler.insert_batch([("G1", (1, 2)), ("NOPE", (3, 4))])
        assert sampler.statistics() == before
        assert sampler.bag_tuples_inserted == 0

    def test_empty_batch_is_noop(self):
        query = triangle_query()
        sampler = CyclicReservoirJoin(query, 5, rng=random.Random(0))
        assert sampler.insert_batch([]) == 0
        assert sampler.tuples_processed == 0


class TestInsertBatchBulkPath:
    def test_bulk_chunks_match_ground_truth_on_dumbbell(self):
        query = dumbbell_query()
        edges = [
            (1, 2), (2, 3), (1, 3),
            (4, 5), (5, 6), (4, 6),
            (3, 4), (2, 5), (1, 6),
        ]
        stream = make_graph_stream(query, edges, seed=301)
        truth = {result_key(r) for r in ground_truth(query, stream)}
        assert truth
        sampler = CyclicReservoirJoin(query, 100_000, rng=random.Random(302))
        for start in range(0, len(stream), 7):
            sampler.insert_batch(stream[start:start + 7])
        assert {result_key(r) for r in sampler.sample} == truth

    def test_return_value_counts_new_tuples(self):
        query = triangle_query()
        sampler = CyclicReservoirJoin(query, 5, rng=random.Random(0))
        inserted = sampler.insert_batch(
            [("G1", (1, 2)), ("G1", (1, 2)), ("G2", (2, 3))]
        )
        assert inserted == 2
        assert sampler.duplicates_ignored == 1
        assert sampler.insert_batch([("G1", (1, 2))]) == 0


class TestBagDeltaEnumeration:
    """The bulk path's precomputed bag-delta plans against the generic oracle.

    For every arriving base tuple and every bag it touches,
    ``_BagDeltaPlan.deltas(row)`` must return the rows ``delta_results``
    enumerates over a shadow copy of that bag's sub-join database — the
    same rows in the same order, which is what keeps the reservoir's
    randomness consumption the one Algorithm 6 prescribes.
    """

    QUERIES = {
        "triangle": {"R1": ["x1", "x2"], "R2": ["x2", "x3"], "R3": ["x1", "x3"]},
        "cycle-4": {
            "R1": ["x1", "x2"],
            "R2": ["x2", "x3"],
            "R3": ["x3", "x4"],
            "R4": ["x1", "x4"],
        },
    }

    @pytest.mark.parametrize("case_seed", [2, 13, 43, 89])
    @pytest.mark.parametrize("shape", list(QUERIES))
    def test_plans_enumerate_exactly_the_delta_oracle(self, shape, case_seed):
        rng = random.Random(case_seed)
        query = JoinQuery.from_spec(shape, self.QUERIES[shape])
        domain = rng.choice([3, 4])
        stream = [
            StreamTuple(
                rng.choice(query.relation_names),
                (rng.randrange(domain), rng.randrange(domain)),
            )
            for _ in range(90)
        ]
        sampler = CyclicReservoirJoin(query, 7, rng=random.Random(case_seed + 1))
        shadows = {
            bag: Database(subquery) for bag, subquery in sampler._bag_subqueries.items()
        }
        seen = set()
        compared = 0
        for item in stream:
            if (item.relation, item.row) in seen:
                continue  # the sampler dedups base tuples before any bag sees them
            seen.add((item.relation, item.row))
            for plan in sampler._delta_plans[item.relation]:
                bag = plan.bag_name
                member = sampler._member_name[(bag, item.relation)]
                attrs = sampler._member_attrs[(bag, item.relation)]
                projection = query.relation(item.relation).project(item.row, attrs)
                expected = []
                if shadows[bag].insert(member, projection):
                    bag_schema = sampler.bag_query.relation(bag)
                    expected = [
                        bag_schema.row_from_mapping(result)
                        for result in delta_results(
                            sampler._bag_subqueries[bag], shadows[bag], member, projection
                        )
                    ]
                assert plan.deltas(item.row) == expected
                compared += len(expected)
        assert compared
