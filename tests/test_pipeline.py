"""Tests for the async pipelined transport (``repro.ingest.pipeline``).

Covers the determinism contract (one FIFO queue in front of the target
makes async ingestion bit-identical to serial ingestion under equal seeds),
the single-worker topology, backpressure on the bounded buffer, worker
error propagation, the chunk-boundary drain guarantee, and the throttled
chunk source.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import (
    AsyncIngestor,
    BatchIngestor,
    JoinQuery,
    ReservoirJoin,
    ShardedIngestor,
    StreamTuple,
)
from repro.relational.stream import ThrottledChunkSource, chunk_stream
from repro.stats.uniformity import result_key

from tests.conftest import ground_truth_keys


def line3_stream(n, seed, domain=12):
    rng = random.Random(seed)
    return [
        StreamTuple(
            ("R1", "R2", "R3")[rng.randrange(3)],
            (rng.randrange(domain), rng.randrange(domain)),
        )
        for _ in range(n)
    ]


# ---------------------------------------------------------------------- #
# Determinism: async ≡ serial, bit for bit
# ---------------------------------------------------------------------- #
class TestDeterminism:
    def test_sharded_target_bit_identical_to_serial(self, line3_query):
        stream = line3_stream(800, seed=1)
        serial = ShardedIngestor(
            line3_query, k=30, num_shards=3, chunk_size=64, rng=random.Random(7)
        )
        serial.ingest(stream)
        target = ShardedIngestor(
            line3_query, k=30, num_shards=3, chunk_size=64, rng=random.Random(7)
        )
        with AsyncIngestor(target, chunk_size=64, buffer_chunks=2) as ingestor:
            ingestor.ingest(stream)
        # The queue is FIFO, so the target consumed exactly the serial chunk
        # sequence: reservoirs match bit for bit.
        for async_sampler, serial_sampler in zip(target.samplers, serial.samplers):
            assert async_sampler.sample == serial_sampler.sample
        assert target.shard_states() == serial.shard_states()
        assert target.tuples_ingested == serial.tuples_ingested
        assert target.batches_ingested == serial.batches_ingested
        assert target.broadcast_deliveries == serial.broadcast_deliveries

    def test_plain_sampler_bit_identical_to_batched(self, line3_query):
        stream = line3_stream(400, seed=2)
        serial = ReservoirJoin(line3_query, 20, rng=random.Random(3))
        BatchIngestor(serial, chunk_size=50).ingest(stream)
        sampler = ReservoirJoin(line3_query, 20, rng=random.Random(3))
        with AsyncIngestor(sampler, chunk_size=50) as ingestor:
            ingestor.ingest(stream)
            assert ingestor.sample == serial.sample

    def test_one_worker_thread_for_every_target(self, line3_query):
        targets = [
            ShardedIngestor(line3_query, k=5, num_shards=3, rng=random.Random(1)),
            BatchIngestor(ReservoirJoin(line3_query, 5, rng=random.Random(2))),
            ReservoirJoin(line3_query, 5, rng=random.Random(3)),
        ]
        for target in targets:
            before = set(threading.enumerate())
            ingestor = AsyncIngestor(target)
            try:
                assert set(threading.enumerate()) - before == {ingestor._worker.thread}
                assert ingestor.statistics()["async_workers"] == 1
            finally:
                ingestor.close()

    def test_merged_sample_drains_first(self, line3_query):
        stream = line3_stream(500, seed=6)
        truth = ground_truth_keys(line3_query, stream)
        target = ShardedIngestor(
            line3_query, k=len(truth) + 5, num_shards=2, chunk_size=64,
            rng=random.Random(8),
        )
        with AsyncIngestor(target, chunk_size=64) as ingestor:
            for chunk in chunk_stream(stream, 64):
                ingestor.submit(chunk)
            # No explicit drain: merged_sample must drain before sampling.
            merged = {result_key(r) for r in ingestor.merged_sample()}
        assert merged == truth


# ---------------------------------------------------------------------- #
# Backpressure and flow control
# ---------------------------------------------------------------------- #
class TestBackpressure:
    def test_queue_depth_never_exceeds_buffer(self, line3_query):
        target = ShardedIngestor(
            line3_query, k=10, num_shards=2, chunk_size=32, rng=random.Random(9)
        )
        with AsyncIngestor(target, chunk_size=32, buffer_chunks=3) as ingestor:
            ingestor.ingest(line3_stream(2000, seed=10))
        stats = ingestor.statistics()
        assert stats["async_max_queue_depth"] <= 3
        assert stats["async_chunks_submitted"] == -(-2000 // 32)
        assert stats["async_tuples_submitted"] == 2000
        assert stats["async_chunks_processed"] == [stats["async_chunks_submitted"]]
        # The target's own ingest_batch ran every chunk, so its delivery
        # counters are complete, and the worker's busy time is measured.
        assert stats["batches_ingested"] == stats["async_chunks_submitted"]
        assert sum(stats["shard_tuples"]) >= 2000
        assert stats["async_worker_busy_seconds"][0] > 0

    def test_producer_blocks_instead_of_buffering_unboundedly(self, line3_query):
        target = ShardedIngestor(
            line3_query, k=10, num_shards=2, chunk_size=16, rng=random.Random(11)
        )
        gate = threading.Event()

        class Gated:
            def ingest_batch(self, items):
                gate.wait(timeout=10)
                return target.ingest_batch(items)

        ingestor = AsyncIngestor(Gated(), chunk_size=16, buffer_chunks=2)
        try:
            done = threading.Event()

            def producer():
                ingestor.ingest(line3_stream(640, seed=12))
                done.set()

            thread = threading.Thread(target=producer, daemon=True)
            thread.start()
            # The worker is gated, the buffer is 2 chunks deep: the producer
            # must stall rather than finish.
            assert not done.wait(timeout=0.3)
            gate.set()
            assert done.wait(timeout=10)
            assert ingestor.producer_stall_seconds > 0.2
        finally:
            gate.set()
            ingestor.close()

    def test_invalid_buffer(self, line3_query):
        target = ShardedIngestor(line3_query, k=5, num_shards=2)
        with pytest.raises(ValueError):
            AsyncIngestor(target, buffer_chunks=0)


# ---------------------------------------------------------------------- #
# Validation and error propagation
# ---------------------------------------------------------------------- #
class TestErrors:
    def test_bad_chunk_poisons_and_leaves_every_shard_untouched(self, line3_query):
        target = ShardedIngestor(
            line3_query, k=5, num_shards=2, rng=random.Random(13)
        )
        ingestor = AsyncIngestor(target, chunk_size=16)
        ingestor.submit([("R1", (1, 2))])
        ingestor.submit([("NOPE", (1, 2))])
        with pytest.raises(KeyError):
            ingestor.drain()
        # Sticky, as for every other target: the next submit re-raises.
        with pytest.raises(KeyError):
            ingestor.submit([("R1", (3, 4))])
        ingestor.close()
        # The router validates the whole chunk before any shard mutates.
        assert target.tuples_ingested == 1
        assert sum(target.shard_loads()) == 1

    def test_worker_error_is_sticky_and_poisons_sampling(self, line3_query):
        # A plain sampler validates inside the worker, not the producer.
        sampler = ReservoirJoin(line3_query, 5, rng=random.Random(14))
        ingestor = AsyncIngestor(sampler, chunk_size=16)
        ingestor.submit([("NOPE", (1, 2))])
        with pytest.raises(KeyError):
            ingestor.drain()
        # The failure stays sticky: further work and *sampling* re-raise it —
        # after a worker died the shard states are not trustworthy.
        with pytest.raises(KeyError):
            ingestor.submit([("R1", (1, 2))])
        with pytest.raises(KeyError):
            ingestor.drain()
        with pytest.raises(KeyError):
            ingestor.sample
        ingestor.close()  # the cleanup path never raises

    def test_clean_with_exit_surfaces_an_undrained_failure(self, line3_query):
        sampler = ReservoirJoin(line3_query, 5, rng=random.Random(15))
        with pytest.raises(KeyError):
            with AsyncIngestor(sampler, chunk_size=16) as ingestor:
                ingestor.submit([("NOPE", (1, 2))])
                ingestor.submit([("R1", (1, 2))])
                # no drain(): the clean exit must still raise, not swallow
        # The poisoned worker discarded the second chunk and did not count it.
        assert ingestor.statistics()["async_chunks_processed"] == [0]
        assert sampler.tuples_processed == 0

    def test_exit_with_exception_joins_workers(self, line3_query):
        target = ShardedIngestor(
            line3_query, k=10, num_shards=2, chunk_size=32, rng=random.Random(20)
        )
        with pytest.raises(RuntimeError, match="boom"):
            with AsyncIngestor(target, chunk_size=32, buffer_chunks=4) as ingestor:
                for chunk in chunk_stream(line3_stream(640, seed=21), 32):
                    ingestor.submit(chunk)
                raise RuntimeError("boom")
        # The error path still joins the workers: the bounded backlog is
        # fully absorbed and the target is quiescent for post-mortem reads.
        assert not ingestor._worker.thread.is_alive()
        assert target.tuples_ingested == 640
        assert sum(target.shard_loads()) >= 640

    def test_submit_after_close_raises(self, line3_query):
        target = ShardedIngestor(line3_query, k=5, num_shards=2)
        ingestor = AsyncIngestor(target)
        ingestor.close()
        with pytest.raises(RuntimeError):
            ingestor.submit([("R1", (1, 2))])
        ingestor.close()  # idempotent

    def test_empty_chunk_is_noop(self, line3_query):
        target = ShardedIngestor(line3_query, k=5, num_shards=2)
        with AsyncIngestor(target) as ingestor:
            assert ingestor.submit([]) == 0
        assert ingestor.chunks_submitted == 0


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
        target = ShardedIngestor(
            line3_query, k=10, num_shards=2, chunk_size=64, rng=random.Random(16)
        )
        with AsyncIngestor(target) as ingestor:
            ingestor.ingest_chunks(source)
        assert source.chunks_yielded == -(-300 // 64)
        assert waits == [0.001] * source.chunks_yielded
        assert target.tuples_ingested == 300

    def test_throttled_source_validation(self):
        with pytest.raises(ValueError):
            ThrottledChunkSource([], 8, latency_seconds=-1)
