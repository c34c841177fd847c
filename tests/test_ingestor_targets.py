"""``BatchIngestor``'s contract over every sampler it drives.

One ingestor, one sampler, no routing: whatever the sampler, the ingestor
counts what it delivered, treats an empty chunk as nothing, leaves the
sampler untouched when a chunk is refused, and a ``SampleServer`` over it
serves reads drawn without replacement from the join, straight from the
cut's reservoir (no count pass).  Each case runs once per sampler kind, so
a sampler that breaks the seam fails under its own name.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro import (
    BatchIngestor,
    CyclicReservoirJoin,
    JoinQuery,
    ReservoirJoin,
    SampleServer,
    SJoin,
    StreamDelete,
    StreamTuple,
    SymmetricHashJoinSampler,
    TurnstileReservoirJoin,
    WindowedSampler,
    surviving_rows,
)
from repro.relational.join import count_results

from tests.conftest import make_edges, make_graph_stream
from tests.oracles import ground_truth_keys, result_key

#: A window no test stream reaches: the windowed kinds then hold every row.
WIDE = 10 ** 6

SAMPLERS = {
    "acyclic": lambda query, k, rng: ReservoirJoin(query, k, rng=rng),
    "cyclic": lambda query, k, rng: CyclicReservoirJoin(query, k, rng=rng),
    "turnstile": lambda query, k, rng: TurnstileReservoirJoin(query, k, rng=rng),
    "windowed-count": lambda query, k, rng: WindowedSampler(
        query, k, window=WIDE, rng=rng
    ),
    "windowed-timestamp": lambda query, k, rng: WindowedSampler(
        query, k, window=WIDE, rng=rng, mode="timestamp"
    ),
    "sjoin": lambda query, k, rng: SJoin(query, k, rng=rng),
    "symmetric": lambda query, k, rng: SymmetricHashJoinSampler(query, k, rng=rng),
}
KINDS = list(SAMPLERS)
RETRACTING = ["turnstile", "windowed-count", "windowed-timestamp"]


def build(kind, query, k, seed=0, chunk_size=16):
    sampler = SAMPLERS[kind](query, k, random.Random(seed))
    return BatchIngestor(sampler, chunk_size=chunk_size)


def line3_stream(query, n, seed, domain=6):
    """``n`` random rows with rising timestamps (the timestamp window's clock)."""
    rng = random.Random(seed)
    names = query.relation_names
    return [
        StreamTuple(
            rng.choice(names), (rng.randrange(domain), rng.randrange(domain)), ts
        )
        for ts in range(1, n + 1)
    ]


def keys(sample):
    return [result_key(result) for result in sample]


# ---------------------------------------------------------------------- #
# Counters, empty chunks and refused chunks
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", KINDS)
def test_counts_chunks_and_tuples_and_merges_sampler_statistics(line3_query, kind):
    ingestor = build(kind, line3_query, k=5)
    fired = []
    ingestor.add_boundary_hook(lambda items: fired.append(len(items)))
    ingestor.ingest(line3_stream(line3_query, 60, seed=3))
    assert ingestor.tuples_ingested == 60
    assert ingestor.batches_ingested == 4  # 16+16+16+12
    assert fired == [16, 16, 16, 12]
    stats = ingestor.statistics()
    assert stats["tuples_ingested"] == 60
    assert stats["batches_ingested"] == 4
    assert stats["chunk_size"] == 16
    for name, value in ingestor.sampler.statistics().items():
        assert stats[name] == value, name


@pytest.mark.parametrize("kind", KINDS)
def test_empty_chunk_changes_nothing(line3_query, kind):
    ingestor = build(kind, line3_query, k=5)
    ingestor.ingest(line3_stream(line3_query, 40, seed=5))
    sample, stats = keys(ingestor.sampler.sample), ingestor.statistics()
    fired = []
    ingestor.add_boundary_hook(fired.append)
    assert ingestor.ingest_batch([]) == 0
    assert ingestor.ingest_batch(iter(())) == 0
    assert fired == []
    assert keys(ingestor.sampler.sample) == sample
    assert ingestor.statistics() == stats


@pytest.mark.parametrize("kind", KINDS)
def test_refused_chunk_leaves_the_sampler_untouched(line3_query, kind):
    ingestor = build(kind, line3_query, k=5)
    ingestor.ingest(line3_stream(line3_query, 40, seed=7))
    sample, stats = keys(ingestor.sampler.sample), ingestor.statistics()
    fired = []
    ingestor.add_boundary_hook(fired.append)
    with pytest.raises(KeyError):
        ingestor.ingest_batch([("R2", (2, 3)), ("NOPE", (0, 0))])
    with pytest.raises(ValueError):
        ingestor.ingest_batch([("R2", (2, 3)), ("R1", (1, 2, 3))])
    # Validation ran before the sampler absorbed anything, and a refused
    # chunk is no boundary: nothing is counted and no hook runs.
    assert fired == []
    assert keys(ingestor.sampler.sample) == sample
    assert ingestor.statistics() == stats


# ---------------------------------------------------------------------- #
# What the reservoir holds
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", KINDS)
def test_oversized_reservoir_holds_the_whole_join(line3_query, kind):
    edges = make_edges(8, 24, seed=11)
    stream = make_graph_stream(line3_query, edges, seed=12)
    truth = ground_truth_keys(line3_query, stream)
    assert truth
    ingestor = build(kind, line3_query, k=len(truth) + 5, seed=1)
    ingestor.ingest(stream)
    held = keys(ingestor.sampler.sample)
    assert len(held) == len(truth)
    assert set(held) == truth


@pytest.mark.parametrize("kind", KINDS)
def test_cross_type_join_values_meet(kind):
    """The join compares with ``==`` (1 == 1.0 == True): an int on one side
    and a float or bool on the other still make join results."""
    query = JoinQuery.from_spec("two", {"R1": ["x", "y"], "R2": ["y", "z"]})
    ingestor = build(kind, query, k=10)
    ingestor.ingest_batch([("R1", (5, 1)), ("R2", (1.0, 7)), ("R2", (True, 8))])
    held = ingestor.sampler.sample
    assert len(held) == 2
    assert sorted(result["z"] for result in held) == [7, 8]
    assert all(result["x"] == 5 and result["y"] == 1 for result in held)


def test_cyclic_sampler_holds_every_triangle(triangle_query):
    edges = make_edges(7, 20, seed=29)
    stream = make_graph_stream(triangle_query, edges, seed=31)
    truth = ground_truth_keys(triangle_query, stream)
    assert truth
    ingestor = build("cyclic", triangle_query, k=len(truth) + 3, seed=6)
    ingestor.ingest(stream)
    assert set(keys(ingestor.sampler.sample)) == truth


class TestMixedChunk:
    """Inserts and retractions in one chunk, in stream order."""

    # The first item is an early tombstone for an R1 row inserted later in
    # the chunk; it annihilates that insert.
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

    @pytest.mark.parametrize("kind", RETRACTING)
    def test_index_holds_exactly_the_surviving_rows(self, line3_query, kind):
        ingestor = build(kind, line3_query, k=6, seed=5, chunk_size=64)
        assert ingestor.ingest_batch(self.CHUNK) == len(self.CHUNK)
        live = surviving_rows(self.CHUNK)
        database = ingestor.sampler.index.database
        for relation in line3_query.relation_names:
            assert set(database[relation].rows) == live.get(relation, set())


# ---------------------------------------------------------------------- #
# Served reads
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", KINDS)
def test_served_reads_draw_without_replacement_from_the_join(line3_query, kind):
    stream = line3_stream(line3_query, 150, seed=17)
    truth = ground_truth_keys(line3_query, stream)
    assert len(truth) > 10
    server = SampleServer(build(kind, line3_query, k=6, seed=3), rng=random.Random(4))
    server.ingest(stream)
    snap = server.snapshot()
    full = keys(snap.sample())
    assert len(full) == len(set(full)) == 6
    assert set(full) <= truth
    for _ in range(5):  # repeated reads of one cut
        subset = keys(snap.sample(4))
        assert len(set(subset)) == 4
        assert set(subset) <= set(full)
    assert keys(snap.sample(3, rng=random.Random(42))) == keys(
        snap.sample(3, rng=random.Random(42))
    )
    assert keys(snap.sample(10 ** 6)) == full  # k beyond the reservoir: all of it


def _forbid_count_results(monkeypatch):
    """Make every binding of ``count_results`` raise."""

    def forbidden(query, database):
        raise AssertionError("count_results ran while serving a cut")

    for module in list(sys.modules.values()):
        if getattr(module, "count_results", None) is count_results:
            monkeypatch.setattr(module, "count_results", forbidden)


@pytest.mark.parametrize("kind", KINDS)
def test_served_cut_runs_no_count_pass(line3_query, monkeypatch, kind):
    rng = random.Random(43)
    stream = []
    for ts in range(1, 241):
        item = StreamTuple(
            rng.choice(line3_query.relation_names),
            (rng.randrange(6), rng.randrange(6)),
            ts,
        )
        stream.append(item)
        if kind in RETRACTING and ts % 5 == 0:
            stream.append(StreamDelete(item.relation, item.row))
    server = SampleServer(build(kind, line3_query, k=6, seed=44), rng=random.Random(45))
    server.ingest(stream)
    if kind in RETRACTING:
        assert server.ingestor.sampler.statistics()["evictions"]
    _forbid_count_results(monkeypatch)
    snap = server.snapshot()
    assert len(snap.sample()) == 6
    assert len(snap.sample(3)) == 3
