"""End-to-end tests for ReservoirJoin (Algorithm 6), the headline API."""

import random

from repro.core.reservoir_join import ReservoirJoin
from repro.relational import Database, StreamTuple, join_results
from repro.workloads import tpcds
from repro.workloads.graph import star_query

from tests.conftest import make_edges, make_graph_stream
from tests.oracles import ground_truth, result_key, uniformity_p_value


def replay(query, stream, k, seed, **kwargs):
    sampler = ReservoirJoin(query, k, rng=random.Random(seed), **kwargs)
    for item in stream:
        sampler.insert(item.relation, item.row)
    return sampler


class TestBasicBehaviour:
    def test_small_join_collected_entirely(self, line3_query):
        edges = [(1, 2), (2, 3), (3, 4)]
        stream = make_graph_stream(line3_query, edges, seed=0)
        sampler = replay(line3_query, stream, k=100, seed=1)
        truth = {result_key(r) for r in ground_truth(line3_query, stream)}
        assert {result_key(r) for r in sampler.sample} == truth

    def test_sample_size_capped_at_k(self, line3_query):
        edges = make_edges(5, 15, seed=2)
        stream = make_graph_stream(line3_query, edges, seed=3)
        sampler = replay(line3_query, stream, k=7, seed=4)
        assert sampler.sample_size == 7

    def test_samples_are_always_real_results(self, star3_query):
        edges = make_edges(5, 14, seed=5)
        stream = make_graph_stream(star3_query, edges, seed=6)
        sampler = replay(star3_query, stream, k=20, seed=7)
        truth = {result_key(r) for r in ground_truth(star3_query, stream)}
        assert all(result_key(r) in truth for r in sampler.sample)

    def test_duplicates_do_not_affect_results(self, two_table_query):
        stream = [
            StreamTuple("R1", (1, 2)),
            StreamTuple("R1", (1, 2)),
            StreamTuple("R2", (2, 3)),
            StreamTuple("R2", (2, 3)),
        ]
        sampler = replay(two_table_query, stream, k=5, seed=8)
        assert sampler.duplicates_ignored == 2
        assert {result_key(r) for r in sampler.sample} == {
            result_key({"x": 1, "y": 2, "z": 3})
        }

    def test_statistics_shape(self, line3_query):
        edges = make_edges(4, 8, seed=9)
        stream = make_graph_stream(line3_query, edges, seed=10)
        sampler = replay(line3_query, stream, k=5, seed=11)
        stats = sampler.statistics()
        assert stats["tuples_processed"] == len(stream)
        assert stats["sample_size"] == sampler.sample_size
        assert stats["simulated_stream_length"] >= stats["items_examined"]

    def test_process_stream_interface(self, line3_query):
        edges = make_edges(4, 8, seed=12)
        stream = make_graph_stream(line3_query, edges, seed=13)
        sampler = ReservoirJoin(line3_query, 5, rng=random.Random(1))
        assert sampler.process(stream) is sampler
        assert sampler.tuples_processed == len(stream)


class TestPrefixCorrectness:
    def test_reservoir_correct_at_every_prefix(self, two_table_query):
        """After every insertion the reservoir holds only (and enough) real results."""
        edges = make_edges(4, 10, seed=14)
        stream = make_graph_stream(two_table_query, edges, seed=15)
        sampler = ReservoirJoin(two_table_query, 6, rng=random.Random(3))
        shadow = Database(two_table_query)
        for item in stream:
            sampler.insert(item.relation, item.row)
            shadow.insert(item.relation, item.row)
            universe = {result_key(r) for r in join_results(two_table_query, shadow)}
            sample_keys = [result_key(r) for r in sampler.sample]
            assert len(sample_keys) == min(6, len(universe))
            assert len(set(sample_keys)) == len(sample_keys)  # without replacement
            assert set(sample_keys) <= universe


class TestUniformity:
    def check_uniform(self, query, stream, k, trials=400, threshold=1e-3):
        universe = ground_truth(query, stream)
        assert len(universe) > k  # otherwise the test is vacuous

        def run(seed):
            return replay(query, stream, k=k, seed=seed).sample

        p_value = uniformity_p_value(run, universe, trials=trials, sample_size=k)
        assert p_value > threshold

    def test_two_table_uniform(self, two_table_query):
        edges = make_edges(4, 9, seed=16)
        stream = make_graph_stream(two_table_query, edges, seed=17)
        self.check_uniform(two_table_query, stream, k=3)

    def test_line3_uniform(self, line3_query):
        edges = make_edges(4, 8, seed=18)
        stream = make_graph_stream(line3_query, edges, seed=19)
        self.check_uniform(line3_query, stream, k=4)

    def test_uniform_at_intermediate_prefix(self, two_table_query):
        """The reservoir must be uniform at *every* prefix, not just at the end.

        We stop the stream halfway and chi-square the inclusion counts of the
        join results that exist at that point.
        """
        edges = make_edges(4, 10, seed=160)
        stream = make_graph_stream(two_table_query, edges, seed=161)
        half = stream[: len(stream) // 2]
        universe = ground_truth(two_table_query, half)
        assert len(universe) > 3

        def run(seed):
            return replay(two_table_query, half, k=3, seed=seed).sample

        assert uniformity_p_value(run, universe, trials=400, sample_size=3) > 1e-3

    def test_star3_uniform_with_grouping(self, star3_query):
        edges = make_edges(4, 8, seed=20)
        stream = make_graph_stream(star3_query, edges, seed=21)
        universe = ground_truth(star3_query, stream)
        assert len(universe) > 4

        def run(seed):
            return replay(star3_query, stream, k=4, seed=seed, grouping=True).sample

        assert uniformity_p_value(run, universe, trials=400, sample_size=4) > 1e-3


class TestOptimisations:
    def test_grouping_produces_same_result_set_support(self):
        query = star_query(4)
        edges = make_edges(4, 10, seed=22)
        stream = make_graph_stream(query, edges, seed=23)
        truth = {result_key(r) for r in ground_truth(query, stream)}
        plain = replay(query, stream, k=1000, seed=24)
        grouped = replay(query, stream, k=1000, seed=24, grouping=True)
        assert {result_key(r) for r in plain.sample} == truth
        assert {result_key(r) for r in grouped.sample} == truth

    def test_foreign_key_optimisation_matches_ground_truth(self):
        rng = random.Random(25)
        data = tpcds.generate(0.03, rng)
        query, stream = tpcds.qy_workload(data, rng)
        truth = {result_key(r) for r in ground_truth(query, stream)}
        sampler = replay(query, stream, k=10_000, seed=26, foreign_key=True, grouping=True)
        assert {result_key(r) for r in sampler.sample} == truth

    def test_foreign_key_flag_without_keys_is_noop(self, line3_query):
        sampler = ReservoirJoin(line3_query, 5, rng=random.Random(0), foreign_key=True)
        assert sampler.query is line3_query
