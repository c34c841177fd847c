"""Tests for the persistent shard worker pool (``repro.ingest.pool``).

Exercises the pool directly — below ``ShardedIngestor`` — so the IPC
contract is pinned on its own terms: worker replicas bit-identical to
locally-fed twins, reuse across submission waves, sub-chunks larger than
the kernel pipe buffer, snapshot round trips through live workers, sticky
poison on worker death and worker-side exceptions, backpressure/validation
errors, and the delivery counters.  The
``ShardedIngestor`` integration (live-pool ``ingest_batch``, measured
statistics, checkpoint adoption) lives in tests/test_shard_ingest.py and
tests/test_checkpoint.py.
"""

from __future__ import annotations

import pickle
import random
import signal

import pytest

from repro import (
    BatchIngestor,
    JoinQuery,
    ReservoirJoin,
    ShardedIngestor,
    ShardWorkerPool,
    StreamTuple,
    WorkerCrashError,
)
from repro.core.backend import restore_backend, snapshot_backend
from repro.relational.stream import as_relation_rows


def chain3() -> JoinQuery:
    return JoinQuery.from_spec(
        "chain-3", {"R1": ["x1", "x2"], "R2": ["x2", "x3"], "R3": ["x3", "x4"]}
    )


def chain3_stream(n, seed=5, domain=12):
    rng = random.Random(seed)
    return [
        StreamTuple(
            ("R1", "R2", "R3")[i % 3], (rng.randrange(domain), rng.randrange(domain))
        )
        for i in range(n)
    ]


def make_replicas(num_shards, k=4, seed=7, chunk_size=16):
    """Local samplers/ingestors plus the pool init records that clone them."""
    samplers = [
        ReservoirJoin(chain3(), k=k, rng=random.Random(seed + shard))
        for shard in range(num_shards)
    ]
    ingestors = [BatchIngestor(s, chunk_size=chunk_size) for s in samplers]
    inits = [snapshot_backend(sampler) for sampler in samplers]
    return samplers, ingestors, inits


def routed_chunks(stream, num_shards, chunk):
    """Deterministic round-robin routing — the pool is router-agnostic."""
    for start in range(0, len(stream), chunk):
        parts = [[] for _ in range(num_shards)]
        for offset, item in enumerate(stream[start : start + chunk]):
            parts[offset % num_shards].append(item)
        yield parts


def feed_locally(ingestors, parts):
    for ingestor, part in zip(ingestors, parts):
        if part:
            ingestor.ingest_batch(part)


# --------------------------------------------------------------------- #
# Lifecycle and validation
# --------------------------------------------------------------------- #
class TestLifecycle:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardWorkerPool([])

    def test_context_manager_and_idempotent_close(self):
        _, _, inits = make_replicas(2)
        with ShardWorkerPool(inits) as pool:
            assert pool.active and pool.num_workers == 2
            processes = [handle.process for handle in pool.workers]
        assert not pool.active
        assert all(not process.is_alive() for process in processes)
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit([[], []])

    def test_submit_rejects_part_count_mismatch(self):
        _, _, inits = make_replicas(2)
        with ShardWorkerPool(inits) as pool:
            with pytest.raises(ValueError, match="3 parts for 2 pool workers"):
                pool.submit([[], [], []])


# --------------------------------------------------------------------- #
# Bit identity: pool workers vs locally-fed twin replicas
# --------------------------------------------------------------------- #
class TestBitIdentity:
    def test_workers_match_local_replicas(self):
        samplers, ingestors, inits = make_replicas(2)
        stream = chain3_stream(120, seed=11)
        with ShardWorkerPool(inits) as pool:
            for parts in routed_chunks(stream, 2, 16):
                pool.submit(parts)
                feed_locally(ingestors, parts)
            states = pool.shard_states()
            delivered = pool.delivered_tuples
        assert delivered == [ingestor.tuples_ingested for ingestor in ingestors]
        for (sample, count, capacity), sampler in zip(states, samplers):
            assert sample == list(sampler.sample)  # order too, not just set
            assert capacity == sampler.k
            assert count is not None and count >= 0

    def test_pool_reuse_across_submission_waves(self):
        samplers, ingestors, inits = make_replicas(2)
        stream = chain3_stream(180, seed=12)
        with ShardWorkerPool(inits) as pool:
            for wave in (stream[:60], stream[60:90], stream[90:]):
                for parts in routed_chunks(wave, 2, 16):
                    pool.submit(parts)
                    feed_locally(ingestors, parts)
                # A state read is a drain point; the pool must keep
                # ingesting afterwards on the same worker processes.
                states = pool.shard_states()
                pids = [handle.process.pid for handle in pool.workers]
                assert [s[0] for s in states] == [
                    list(sampler.sample) for sampler in samplers
                ]
            assert pids == [handle.process.pid for handle in pool.workers]
            assert all(c > 0 for c in pool.statistics()["chunks_shipped"])

    def test_snapshots_restore_and_continue_bit_identically(self):
        samplers, ingestors, inits = make_replicas(2)
        stream = chain3_stream(160, seed=13)
        with ShardWorkerPool(inits) as pool:
            for parts in routed_chunks(stream[:80], 2, 16):
                pool.submit(parts)
                feed_locally(ingestors, parts)
            records = pool.snapshots()  # drains; pool stays live
            # Restore the worker snapshots into fresh local replicas and
            # race them against the still-live workers on the tail.
            restored = [restore_backend(r) for r in records]
            twins = [BatchIngestor(s, chunk_size=16) for s in restored]
            for parts in routed_chunks(stream[80:], 2, 16):
                pool.submit(parts)
                feed_locally(twins, parts)
            states = pool.shard_states()
            delivered = pool.delivered_tuples
        assert [s[0] for s in states] == [list(s.sample) for s in restored]
        # The parent's per-worker counts cover both legs of the stream.
        assert delivered == [
            head.tuples_ingested + tail.tuples_ingested
            for head, tail in zip(ingestors, twins)
        ]

    def test_empty_chunks_settle_without_worker_traffic(self):
        _, _, inits = make_replicas(2)
        with ShardWorkerPool(inits) as pool:
            pool.submit([[], []])
            pool.drain()
            assert pool.statistics()["chunks_shipped"] == [0, 0]
            assert pool.delivered_tuples == [0, 0]


# --------------------------------------------------------------------- #
# Sticky poison
# --------------------------------------------------------------------- #
class TestCrash:
    def test_dead_worker_poisons_the_pool_stickily(self):
        _, _, inits = make_replicas(2)
        pool = ShardWorkerPool(inits)
        try:
            victim = pool.workers[1].process
            victim.terminate()
            victim.join()
            parts = [[t] for t in chain3_stream(2, seed=14)]
            with pytest.raises(WorkerCrashError) as excinfo:
                pool.submit(parts)
                pool.drain()
            assert "shard worker 1" in str(excinfo.value)
            assert "rebuild from the last checkpoint" in str(excinfo.value)
            assert pool.poisoned
            # Every subsequent operation re-raises the same failure.
            for operation in (pool.drain, pool.shard_states, pool.snapshots):
                with pytest.raises(WorkerCrashError) as again:
                    operation()
                assert again.value is excinfo.value
        finally:
            pool.close()  # cleanup path never raises the sticky failure
        assert not pool.active

    def test_worker_exception_ships_its_traceback_home(self):
        _, _, inits = make_replicas(1)
        pool = ShardWorkerPool(inits)
        try:
            # A well-formed pair naming a relation outside the schema: it
            # survives wire normalisation and blows up inside the worker's
            # ingest call, exercising the error-reply path.
            pool.submit([[("R9", (1, 2))]])
            with pytest.raises(WorkerCrashError) as excinfo:
                pool.drain()
            message = str(excinfo.value)
            assert "Traceback" in message  # the worker-side stack, verbatim
            assert pool.poisoned
            assert pool.statistics()["poisoned"] is True
        finally:
            pool.close()

    def test_sharded_ingestor_surfaces_pool_crashes(self):
        stream = chain3_stream(120, seed=15)
        ingestor = ShardedIngestor(
            chain3(), k=4, num_shards=2, chunk_size=16, rng=random.Random(9)
        )
        ingestor.ingest_parallel(stream[:60])
        ingestor.pool.workers[0].process.terminate()
        ingestor.pool.workers[0].process.join()
        with pytest.raises(WorkerCrashError):
            ingestor.ingest_batch(stream[60:80])
            ingestor.pool.drain()
        assert ingestor.pool.poisoned
        # The documented recovery: close without sync, rebuild elsewhere.
        ingestor.close_pool(sync=False)
        assert not ingestor.pool_active


# --------------------------------------------------------------------- #
# Counters
# --------------------------------------------------------------------- #
class TestAccounting:
    def test_statistics_shape(self):
        _, _, inits = make_replicas(2)
        stream = chain3_stream(64, seed=17)
        with ShardWorkerPool(inits) as pool:
            for parts in routed_chunks(stream, 2, 16):
                pool.submit(parts)
            pool.drain()
            stats = pool.statistics()
        assert stats["workers"] == 2
        assert sum(stats["tuples_shipped"]) == len(stream)
        assert stats["poisoned"] is False

    def test_sub_chunks_larger_than_the_pipe_buffer(self):
        # A 600-row chunk of 2048-bit ints pickles far beyond the kernel
        # pipe buffer, so back-to-back big sends block in the parent while
        # the worker is still ingesting the previous one.  Identity with a
        # locally-fed twin proves no payload was lost or reordered on the
        # way; fat values keep the pickle large while their join stays
        # empty and cheap.
        samplers, ingestors, inits = make_replicas(1, chunk_size=4096)
        rng = random.Random(18)

        def fat_chunk():
            return [
                StreamTuple(
                    ("R1", "R2", "R3")[i % 3],
                    (rng.getrandbits(2048), rng.getrandbits(2048)),
                )
                for i in range(600)
            ]

        bigs = [fat_chunk() for _ in range(3)]
        wire = pickle.dumps(as_relation_rows(bigs[0]), pickle.HIGHEST_PROTOCOL)
        assert len(wire) > 1 << 18  # beyond Linux's 208 KiB socket default
        smalls = [chain3_stream(30, seed=19 + i) for i in range(4)]
        sequence = [smalls[0], bigs[0], bigs[1], smalls[1], bigs[2], smalls[2], smalls[3]]
        with ShardWorkerPool(inits) as pool:

            def on_alarm(signum, frame):
                for handle in pool.workers:  # lets close() finish too
                    handle.process.terminate()
                raise TimeoutError("pool hung on an oversized sub-chunk")

            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.alarm(60)
            try:
                for part in sequence:
                    pool.submit([part])
                    feed_locally(ingestors, [part])
                states = pool.shard_states()
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            assert not pool.poisoned
            delivered = pool.delivered_tuples
        assert len(states) == 1
        assert samplers[0].sample  # the small chunks do join
        assert states[0][0] == list(samplers[0].sample)
        assert delivered == [ingestors[0].tuples_ingested]
