"""Tests for the prefetching chunk source (``repro.relational.stream``).

Covers the determinism contract (ingestion stays on the caller's thread and
sees the source's chunks in order, so feeding through ``prefetched`` is
bit-identical to feeding directly under equal seeds), the bounded
read-ahead, source error propagation, the producer thread's shutdown when
the consumer stops early, and the throttled chunk source.
"""

from __future__ import annotations

import itertools
import random
import threading
import time

import pytest

from repro import (
    BatchIngestor,
    ReservoirJoin,
    StreamTuple,
    TurnstileReservoirJoin,
    prefetched,
)
from repro.relational.stream import (
    PREFETCH_CHUNKS,
    ThrottledChunkSource,
    chunk_stream,
)


def line3_stream(n, seed, domain=12):
    rng = random.Random(seed)
    return [
        StreamTuple(
            ("R1", "R2", "R3")[rng.randrange(3)],
            (rng.randrange(domain), rng.randrange(domain)),
        )
        for _ in range(n)
    ]


def prefetch_threads():
    return [t for t in threading.enumerate() if t.name == "prefetch"]


def wait_for(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


class CountingSource:
    """An endless chunk source counting how many chunks were pulled."""

    def __init__(self):
        self.pulled = 0

    def __iter__(self):
        for index in itertools.count():
            self.pulled += 1
            yield [index]


# ---------------------------------------------------------------------- #
# Determinism: prefetched ≡ direct, bit for bit
# ---------------------------------------------------------------------- #
class TestDeterminism:
    def test_order_and_identity(self):
        chunks = [[i, i + 1] for i in range(0, 40, 2)]
        delivered = list(prefetched(chunks))
        assert delivered == chunks
        assert all(got is sent for got, sent in zip(delivered, chunks))
        assert list(prefetched([])) == []

    def test_ingestor_target_bit_identical_to_serial(self, line3_query):
        stream = line3_stream(800, seed=1)
        serial = BatchIngestor(
            ReservoirJoin(line3_query, 30, rng=random.Random(7)), chunk_size=64
        )
        serial.ingest(stream)
        target = BatchIngestor(
            ReservoirJoin(line3_query, 30, rng=random.Random(7)), chunk_size=64
        )
        for chunk in prefetched(chunk_stream(stream, 64)):
            target.ingest_batch(chunk)
        assert target.sampler.sample == serial.sampler.sample
        assert target.sampler._rng.getstate() == serial.sampler._rng.getstate()
        assert target.statistics() == serial.statistics()

    def test_plain_sampler_bit_identical_to_batched(self, line3_query):
        stream = line3_stream(400, seed=2)
        serial = ReservoirJoin(line3_query, 20, rng=random.Random(3))
        BatchIngestor(serial, chunk_size=50).ingest(stream)
        sampler = ReservoirJoin(line3_query, 20, rng=random.Random(3))
        for chunk in prefetched(chunk_stream(stream, 50)):
            sampler.insert_batch(chunk)
        assert sampler.sample == serial.sample

    def test_one_worker_thread_for_every_target(self, line3_query):
        targets = [
            BatchIngestor(TurnstileReservoirJoin(line3_query, 5, rng=random.Random(1))),
            BatchIngestor(ReservoirJoin(line3_query, 5, rng=random.Random(2))),
        ]
        stream = line3_stream(200, seed=3)
        for target in targets:
            before = set(threading.enumerate())
            for chunk in prefetched(chunk_stream(stream, 32)):
                # Ingestion runs here, on the caller's thread; the only
                # extra thread is the one reading the source.
                extra = set(threading.enumerate()) - before
                assert [t.name for t in extra] in ([], ["prefetch"])
                target.ingest_batch(chunk)
            assert target.tuples_ingested == 200
            assert not prefetch_threads()


# ---------------------------------------------------------------------- #
# Bounded read-ahead
# ---------------------------------------------------------------------- #
class TestBackpressure:
    def test_queue_depth_never_exceeds_buffer(self, line3_query):
        target = BatchIngestor(
            ReservoirJoin(line3_query, 10, rng=random.Random(9)), chunk_size=32
        )
        pulled = [0]

        def source():
            for chunk in chunk_stream(line3_stream(2000, seed=10), 32):
                pulled[0] += 1
                yield chunk

        consumed = lead = 0
        for chunk in prefetched(source()):
            consumed += 1
            # At most a full queue plus the chunk the producer holds.
            lead = max(lead, pulled[0] - consumed)
            target.ingest_batch(chunk)
        assert lead <= PREFETCH_CHUNKS + 1
        assert consumed == pulled[0] == -(-2000 // 32)
        assert target.batches_ingested == consumed
        assert target.tuples_ingested == 2000

    def test_producer_blocks_instead_of_buffering_unboundedly(self):
        source = CountingSource()
        chunks = prefetched(source)
        assert next(chunks) == [0]
        # One chunk taken, a full queue and one chunk in the producer's
        # hand: the endless source is then pulled no further.
        bound = 1 + PREFETCH_CHUNKS + 1
        assert wait_for(lambda: source.pulled >= bound)
        time.sleep(0.2)
        assert source.pulled == bound
        assert next(chunks) == [1]
        chunks.close()
        assert not prefetch_threads()


# ---------------------------------------------------------------------- #
# Errors and early exit
# ---------------------------------------------------------------------- #
class TestErrors:
    def test_bad_chunk_poisons_and_leaves_the_sampler_untouched(self, line3_query):
        target = BatchIngestor(ReservoirJoin(line3_query, 5, rng=random.Random(13)))
        with pytest.raises(KeyError):
            for chunk in prefetched(
                [[("R1", (1, 2))], [("R2", (2, 3)), ("NOPE", (1, 2))], [("R1", (3, 4))]]
            ):
                target.ingest_batch(chunk)
        # The sampler validates the whole chunk before it mutates, and the
        # error ends the loop: the third chunk is never ingested.
        assert target.tuples_ingested == 1
        assert target.sampler.index.size == 1
        assert not prefetch_threads()

    def test_source_error_surfaces_after_the_earlier_chunks(self):
        def source():
            yield [1]
            yield [2]
            raise ValueError("transport failed")

        received = []
        with pytest.raises(ValueError, match="transport failed"):
            for chunk in prefetched(source()):
                received.append(chunk)
        assert received == [[1], [2]]
        assert not prefetch_threads()

    def test_exit_with_exception_joins_workers(self):
        source = CountingSource()
        with pytest.raises(RuntimeError, match="boom"):
            for chunk in prefetched(source):
                if chunk == [3]:
                    raise RuntimeError("boom")
        assert not prefetch_threads()

    def test_break_and_close_join_the_producer(self):
        for stop in ("break", "close"):
            source = CountingSource()
            chunks = prefetched(source)
            for chunk in chunks:
                assert wait_for(lambda: source.pulled > PREFETCH_CHUNKS)
                if stop == "break":
                    break
                chunks.close()
            if stop == "break":
                chunks.close()
            assert not prefetch_threads()
            pulled = source.pulled
            time.sleep(0.05)
            assert source.pulled == pulled

    def test_empty_chunk_is_noop(self, line3_query):
        target = BatchIngestor(ReservoirJoin(line3_query, 5))
        for chunk in prefetched([[]]):
            assert chunk == []
            assert target.ingest_batch(chunk) == 0
        assert target.batches_ingested == 0
        assert target.tuples_ingested == 0


# ---------------------------------------------------------------------- #
# Chunked / throttled sources
# ---------------------------------------------------------------------- #
class TestChunkSources:
    def test_chunk_stream_shapes(self):
        chunks = list(chunk_stream(range(10), 4))
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert list(chunk_stream([], 4)) == []
        with pytest.raises(ValueError):
            list(chunk_stream(range(10), 0))

    def test_throttled_source_delivers_everything(self, line3_query):
        stream = line3_stream(300, seed=15)
        waits = []
        source = ThrottledChunkSource(
            stream, 64, latency_seconds=0.001, sleep=waits.append
        )
        target = BatchIngestor(
            ReservoirJoin(line3_query, 10, rng=random.Random(16)), chunk_size=64
        )
        for chunk in prefetched(source):
            target.ingest_batch(chunk)
        assert source.chunks_yielded == -(-300 // 64)
        assert waits == [0.001] * source.chunks_yielded
        assert target.tuples_ingested == 300

    def test_throttled_source_validation(self):
        with pytest.raises(ValueError):
            ThrottledChunkSource([], 8, latency_seconds=-1)
