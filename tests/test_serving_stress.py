"""Concurrency stress: reader threads hammering a server under ingestion.

Satellite of the serving-layer PR.  One writer thread drives chunks into a
:class:`~repro.serve.server.SampleServer` while ``N_READERS`` (>= 8) threads
hammer ``snapshot()``/``sample()`` the whole time.  Two claims:

* **Zero torn reads** — every sample any reader ever observes must equal,
  as a result set, the ground-truth join universe of *exactly* the
  chunk-boundary prefix of its snapshot's epoch.  A half-applied chunk
  would show up as a key set matching no boundary.
* **Per-epoch uniformity** — across independently seeded serve-and-read
  trials stopped at one interior epoch, the served ``sample(k)``'s
  inclusion counts over that epoch's prefix universe pass chi-square.

Slow tier: run with ``pytest -m slow`` (CI smoke scales trials through
``REPRO_STAT_TRIALS``).
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import BatchIngestor, ReservoirJoin, SampleServer, StreamTuple

from tests.conftest import stat_trials
from tests.oracles import ground_truth_keys, result_key, uniformity_p_value

pytestmark = pytest.mark.slow

N_READERS = 8
CHUNK = 16
N_CHUNKS = 24
P_THRESHOLD = 0.002


def make_stream(query, n, seed, domain=10):
    rng = random.Random(seed)
    names = query.relation_names
    return [
        StreamTuple(rng.choice(names), (rng.randrange(domain), rng.randrange(domain)))
        for _ in range(n)
    ]


def test_concurrent_readers_see_no_torn_reads(line3_query):
    stream = make_stream(line3_query, N_CHUNKS * CHUNK, seed=42)
    pieces = [stream[i : i + CHUNK] for i in range(0, len(stream), CHUNK)]

    # Ground truth per epoch: the join universe of every chunk-boundary
    # prefix (epoch 0 = empty prefix).  Any sample matching none of these
    # exactly is a torn read.
    truths = {0: frozenset()}
    for epoch in range(1, len(pieces) + 1):
        truths[epoch] = frozenset(
            ground_truth_keys(line3_query, stream[: epoch * CHUNK])
        )

    oversized = len(truths[len(pieces)]) + 8
    server = SampleServer(
        BatchIngestor(
            ReservoirJoin(line3_query, oversized, rng=random.Random(1)),
            chunk_size=CHUNK,
        ),
        rng=random.Random(2),
    )

    writer_done = threading.Event()
    failures = []
    reads_per_thread = [0] * N_READERS

    def write() -> None:
        try:
            for piece in pieces:
                server.ingest_batch(piece)
        finally:
            writer_done.set()

    def read(slot: int) -> None:
        rng = random.Random(1000 + slot)
        while True:
            snap = server.snapshot(max_staleness=rng.choice((0, 1, 2)))
            observed = frozenset(result_key(r) for r in snap.sample())
            if observed != truths[snap.epoch]:
                failures.append(
                    f"reader {slot}: torn read at epoch {snap.epoch}: "
                    f"{len(observed ^ truths[snap.epoch])} keys differ"
                )
                return
            reads_per_thread[slot] += 1
            if writer_done.is_set() and snap.epoch >= len(pieces):
                return

    readers = [
        threading.Thread(target=read, args=(slot,)) for slot in range(N_READERS)
    ]
    writer = threading.Thread(target=write)
    for thread in readers:
        thread.start()
    writer.start()
    writer.join(timeout=120)
    for thread in readers:
        thread.join(timeout=120)
    assert not writer.is_alive() and not any(t.is_alive() for t in readers)
    assert failures == []
    # Every reader really hammered the server (several reads each), and the
    # cut cache did its job: far fewer captures than reads.
    assert all(count >= 3 for count in reads_per_thread), reads_per_thread
    stats = server.statistics()
    assert stats["snapshots_taken"] <= len(pieces) + N_READERS
    assert sum(reads_per_thread) > stats["snapshots_taken"]


def test_served_sample_is_uniform_per_epoch(line3_query):
    stream = make_stream(line3_query, 8 * CHUNK, seed=5)
    trials = stat_trials(300)
    k = 12

    for epoch in (3, 8):  # one interior boundary, one at stream end
        prefix = stream[: epoch * CHUNK]
        universe = ground_truth_keys(line3_query, prefix)
        if len(universe) <= k:
            raise AssertionError("stream too small for a meaningful chi-square")

        def run_served(seed: int):
            server = SampleServer(
                BatchIngestor(
                    ReservoirJoin(line3_query, k, rng=random.Random(seed)),
                    chunk_size=CHUNK,
                ),
                rng=random.Random(seed + 7),
            )
            for start in range(0, len(prefix), CHUNK):
                server.ingest_batch(prefix[start : start + CHUNK])
            snap = server.snapshot()
            assert snap.epoch == epoch
            return snap.sample()

        p_value = uniformity_p_value(
            run_served,
            [dict(key) for key in universe],
            trials,
            k,
        )
        assert p_value > P_THRESHOLD, f"epoch {epoch}: p={p_value:.5f}"
