"""End-to-end integration tests across workloads and samplers.

These tests run the full pipeline (workload generation → streaming →
sampling) for every query family of the paper's evaluation, at tiny scale,
and cross-check the different samplers against each other and against ground
truth.
"""

import random

import pytest

from repro import (
    CyclicReservoirJoin,
    DynamicJoinIndex,
    ReservoirJoin,
    SJoin,
    SymmetricHashJoinSampler,
)
from repro.stats.uniformity import result_key
from repro.workloads import graph, ldbc, tpcds
from tests.conftest import ground_truth


@pytest.fixture(scope="module")
def small_graph_edges():
    return graph.epinions_like(120, random.Random(400))


class TestGraphQueries:
    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_line_joins_all_samplers_agree(self, small_graph_edges, length):
        query = graph.line_query(length)
        stream = graph.edge_stream(query, small_graph_edges[:60], random.Random(401))
        truth = {result_key(r) for r in ground_truth(query, stream)}
        huge_k = 10 * max(len(truth), 1)

        rsjoin = ReservoirJoin(query, huge_k, rng=random.Random(1)).process(stream)
        sjoin = SJoin(query, huge_k, rng=random.Random(2)).process(stream)
        symmetric = SymmetricHashJoinSampler(query, huge_k, random.Random(3)).process(stream)

        assert {result_key(r) for r in rsjoin.sample} == truth
        assert {result_key(r) for r in sjoin.sample} == truth
        assert {result_key(r) for r in symmetric.sample} == truth

    @pytest.mark.parametrize("arms", [3, 4])
    def test_star_joins(self, small_graph_edges, arms):
        query = graph.star_query(arms)
        stream = graph.edge_stream(query, small_graph_edges[:40], random.Random(402))
        truth = {result_key(r) for r in ground_truth(query, stream)}
        sampler = ReservoirJoin(query, 20, rng=random.Random(4), grouping=True).process(stream)
        assert sampler.sample_size == min(20, len(truth))
        assert all(result_key(r) in truth for r in sampler.sample)

    def test_triangle_cyclic(self, small_graph_edges):
        query = graph.triangle_query()
        stream = graph.edge_stream(query, small_graph_edges[:80], random.Random(403))
        truth = {result_key(r) for r in ground_truth(query, stream)}
        sampler = CyclicReservoirJoin(query, 50, rng=random.Random(5)).process(stream)
        assert sampler.sample_size == min(50, len(truth))
        assert all(result_key(r) in truth for r in sampler.sample)

    def test_reservoir_vs_full_index_sampling(self, small_graph_edges):
        """The streaming reservoir and the dynamic full-join sampler agree on support."""
        query = graph.line_query(3)
        stream = graph.edge_stream(query, small_graph_edges[:50], random.Random(404))
        truth = {result_key(r) for r in ground_truth(query, stream)}
        index = DynamicJoinIndex(query, maintain_root=True)
        for item in stream:
            index.insert(item.relation, item.row)
        rng = random.Random(6)
        for _ in range(50):
            sample = index.sample(rng)
            if truth:
                assert result_key(sample) in truth
            else:
                assert sample is None


class TestRelationalQueries:
    @pytest.fixture(scope="class")
    def tpcds_data(self):
        return tpcds.generate(0.04, random.Random(405))

    @pytest.mark.parametrize("name", ["QX", "QY", "QZ"])
    def test_tpcds_queries_full_pipeline(self, tpcds_data, name):
        query, stream = tpcds.WORKLOADS[name](tpcds_data, random.Random(406))
        truth = {result_key(r) for r in ground_truth(query, stream)}
        plain = ReservoirJoin(query, 10 * max(len(truth), 1), rng=random.Random(7))
        optimised = ReservoirJoin(
            query,
            10 * max(len(truth), 1),
            rng=random.Random(8),
            foreign_key=True,
            grouping=True,
        )
        plain.process(stream)
        optimised.process(stream)
        assert {result_key(r) for r in plain.sample} == truth
        assert {result_key(r) for r in optimised.sample} == truth

    def test_ldbc_q10_full_pipeline(self):
        data = ldbc.generate(0.15, random.Random(407))
        query, stream = ldbc.q10_workload(data, random.Random(408))
        truth = {result_key(r) for r in ground_truth(query, stream)}
        sampler = ReservoirJoin(
            query, 50, rng=random.Random(9), foreign_key=True, grouping=True
        ).process(stream)
        assert sampler.sample_size == min(50, len(truth))
        assert all(result_key(r) in truth for r in sampler.sample)


class TestPackageSurface:
    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_every_subpackage_export_resolves(self):
        # A deleted class must not linger as a stale name in any __all__.
        import importlib
        import pkgutil

        import repro

        subpackages = [
            info.name
            for info in pkgutil.iter_modules(repro.__path__, "repro.")
            if info.ispkg
        ]
        assert {"repro.core", "repro.index", "repro.ingest", "repro.relational",
                "repro.serve"} <= set(subpackages)
        for name in subpackages:
            module = importlib.import_module(name)
            for export in getattr(module, "__all__", ()):
                assert hasattr(module, export), f"{name}.{export}"

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"
