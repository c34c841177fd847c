"""PredicateStreamSampler: the Algorithm-1 reservoir behind the seam."""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from repro import BatchIngestor, PredicateStreamSampler, prefetched
from repro.core.skippable import is_real
from repro.ingest.checkpoint import CODEC
from repro.relational.stream import chunk_stream
from repro.workloads.strings import EditDistancePredicate, string_stream


def make_case(n=240, seed=3):
    rng = random.Random(seed)
    items, query_string, predicate = string_stream(n, 0.3, rng)
    stream = [("S", (item,)) for item in items]
    real = [item for item in items if predicate(item)]
    fresh = lambda: EditDistancePredicate(query_string, predicate.threshold)
    return stream, real, fresh


def test_oversized_reservoir_holds_exactly_the_real_items():
    stream, real, fresh = make_case()
    sampler = PredicateStreamSampler(len(real) + 5, fresh(), rng=random.Random(1))
    BatchIngestor(sampler, chunk_size=32).ingest(stream)
    assert sorted(row["item"] for row in sampler.sample) == sorted(real)


def test_insert_and_insert_batch_validate_before_mutating():
    sampler = PredicateStreamSampler(5, rng=random.Random(0))
    with pytest.raises(KeyError):
        sampler.insert_batch([("S", (1,)), ("T", (2,))])
    with pytest.raises(ValueError):
        sampler.insert_batch([("S", (1,)), ("S", (2, 3))])
    with pytest.raises(KeyError):
        sampler.insert("T", (1,))
    # Whole-chunk validation: the bad item mid-chunk left nothing behind.
    assert sampler.tuples_processed == 0
    assert sampler.sample == []


def test_statistics_report_stops_and_predicate_evaluations():
    stream, real, fresh = make_case()
    sampler = PredicateStreamSampler(10, fresh(), rng=random.Random(2))
    BatchIngestor(sampler, chunk_size=32).ingest(stream)
    stats = sampler.statistics()
    assert stats["tuples_processed"] == len(stream)
    assert stats["real_stops"] <= stats["stops"] <= len(stream)
    assert stats["sample_size"] == min(10, len(real))
    assert 0 < stats["predicate_evaluations"] <= len(stream)


def test_default_predicate_is_real():
    sampler = PredicateStreamSampler(4, rng=random.Random(0))
    assert sampler.predicate is is_real
    sampler.insert_batch([("S", (value,)) for value in range(9)])
    assert len(sampler.sample) == 4


def test_same_chunking_same_seed_is_bit_identical():
    stream, _, fresh = make_case()
    first = PredicateStreamSampler(12, fresh(), rng=random.Random(5))
    second = PredicateStreamSampler(12, fresh(), rng=random.Random(5))
    BatchIngestor(first, chunk_size=16).ingest(stream)
    BatchIngestor(second, chunk_size=16).ingest(stream)
    assert first.sample == second.sample


def test_every_chunking_gives_the_same_bits():
    """The pending skip carries over chunk boundaries, so the chunk size
    changes no draw: the same sample and the same RNG state."""
    stream, _, fresh = make_case()
    runs = []
    for chunk_size in (1, 7, 32, len(stream)):
        sampler = PredicateStreamSampler(12, fresh(), rng=random.Random(5))
        BatchIngestor(sampler, chunk_size=chunk_size).ingest(stream)
        stats = sampler.statistics()
        del stats["chunks_processed"]
        runs.append((sampler.sample, sampler._rng.getstate(), stats))
    assert all(run == runs[-1] for run in runs)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_snapshot_without_a_pending_skip_restores():
    """A checkpoint whose snapshot predates the carried-over pending skip
    (it records ``stops`` and no ``pending_skip``; taken after the first 96
    tuples of ``make_case()`` in chunks of 32) restores, and its next chunk
    draws exactly what the version that wrote it drew: the digests were
    recorded by restoring the same file there and ingesting the same chunk.
    """
    path = Path(__file__).parent / "data" / "predicate.checkpoint"
    state = CODEC.load(path)["state"]["backend"]["state"]
    assert "pending_skip" not in state and state["stops"] == 65
    stream, _, _ = make_case()
    resumed = BatchIngestor.restore(path)
    assert resumed.sampler.statistics()["stops"] == 65
    resumed.ingest_batch(stream[96:128])
    sampler = resumed.sampler
    assert _digest(sampler.sample) == (
        "31bd4b91e772cfb51113550b16fd782b97a4c7c38d7d34fd0f7349fa64a0655a"
    )
    assert _digest(sampler._rng.getstate()) == (
        "cd843c9cc89e6203179f82a811b48da32ebefaee07c5d3b61cff79c9ab62316e"
    )
    assert sampler.statistics() == {
        "k": 12,
        "sample_size": 12,
        "tuples_processed": 128,
        "chunks_processed": 4,
        "stops": 73,
        "real_stops": 25,
        "predicate_evaluations": 73,
    }
    # From here on it is an ordinary sampler: its own snapshot round-trips.
    restored = PredicateStreamSampler.from_snapshot(sampler.snapshot_state())
    assert restored.snapshot_state() == sampler.snapshot_state()


def test_checkpoint_roundtrip_resumes_bit_identically(tmp_path):
    stream, _, fresh = make_case()
    cut = 128  # a multiple of the chunk size: a chunk boundary

    uninterrupted = PredicateStreamSampler(12, fresh(), rng=random.Random(5))
    BatchIngestor(uninterrupted, chunk_size=32).ingest(stream)

    interrupted = BatchIngestor(
        PredicateStreamSampler(12, fresh(), rng=random.Random(5)), chunk_size=32
    )
    interrupted.ingest(stream[:cut])
    path = tmp_path / "ckpt"
    interrupted.save(path)
    resumed = BatchIngestor.restore(path)
    resumed.ingest(stream[cut:])
    assert resumed.sampler.sample == uninterrupted.sample
    assert resumed.sampler.statistics() == uninterrupted.statistics()


def test_async_pipeline_matches_serial_run():
    stream, _, fresh = make_case()
    serial = PredicateStreamSampler(12, fresh(), rng=random.Random(5))
    BatchIngestor(serial, chunk_size=32).ingest(stream)

    piped = PredicateStreamSampler(12, fresh(), rng=random.Random(5))
    ingestor = BatchIngestor(piped, chunk_size=32)
    for chunk in prefetched(chunk_stream(stream, 32)):
        ingestor.ingest_batch(chunk)
    assert piped.sample == serial.sample


def test_insert_is_a_one_item_chunk():
    stream, _, fresh = make_case()
    per_item = PredicateStreamSampler(12, fresh(), rng=random.Random(5))
    chunked = PredicateStreamSampler(12, fresh(), rng=random.Random(5))
    for relation, row in stream:
        per_item.insert(relation, row)
        chunked.insert_batch([(relation, row)])
    assert per_item.sample == chunked.sample
    assert per_item.statistics() == chunked.statistics()
    assert per_item.statistics()["chunks_processed"] == len(stream)


def test_snapshot_restores_with_or_without_the_retired_names():
    stream, _, fresh = make_case()
    sampler = PredicateStreamSampler(12, fresh(), rng=random.Random(5))
    sampler.insert_batch(stream[:64])
    state = sampler.snapshot_state()
    assert "relation" not in state and "attribute" not in state
    older = dict(state, relation="S", attribute="item")
    for snapshot in (state, older):
        restored = PredicateStreamSampler.from_snapshot(snapshot)
        restored.insert_batch(stream[64:])
        assert restored.sample[0].keys() == {"item"}
    with pytest.raises(ValueError, match="relation"):
        PredicateStreamSampler.from_snapshot(dict(state, relation="T"))
    with pytest.raises(ValueError, match="attribute"):
        PredicateStreamSampler.from_snapshot(dict(state, attribute="value"))
