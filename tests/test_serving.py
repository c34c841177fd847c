"""The sample-serving layer: epochs, snapshot isolation, views, read counts.

Fast tier-1 tests for ``repro.serve`` plus the chunk-boundary hook seam it
rides on (``BatchIngestor.add_boundary_hook``) and the
``PeriodicCheckpointer`` built on the same seam.  The thread-hammering
counterpart lives in tests/test_serving_stress.py (slow tier); the
bit-for-bit property sweep is section (g) of the statistical harness.
"""

from __future__ import annotations

import math
import random
import sys
import threading
from collections import Counter

import pytest

from repro import (
    BatchIngestor,
    PredicateStreamSampler,
    ReservoirJoin,
    SampleServer,
    StreamDelete,
    StreamTuple,
    TurnstileReservoirJoin,
    prefetched,
)
import repro.serve.server as server_module
from repro.ingest.checkpoint import PeriodicCheckpointer
from repro.relational.stream import chunk_stream
from repro.stats.memory import deep_sizeof

from tests.oracles import chi_square_uniformity, result_key

K = 8
CHUNK = 16
N_TUPLES = 10 * CHUNK


def line3_stream(query, n, seed, domain=12):
    rng = random.Random(seed)
    names = query.relation_names
    return [
        StreamTuple(rng.choice(names), (rng.randrange(domain), rng.randrange(domain)))
        for _ in range(n)
    ]


@pytest.fixture
def stream(line3_query):
    return line3_stream(line3_query, N_TUPLES, seed=7)


def is_even(item):
    """Module-level predicate: picklable, so its sampler checkpoints."""
    return item % 2 == 0


# ---------------------------------------------------------------------- #
# The chunk-boundary hook seam
# ---------------------------------------------------------------------- #
class TestBoundaryHooks:
    def test_batch_ingestor_fires_once_per_chunk(self, line3_query, stream):
        ingestor = BatchIngestor(ReservoirJoin(line3_query, K), chunk_size=CHUNK)
        seen = []
        ingestor.add_boundary_hook(lambda items: seen.append(len(items)))
        ingestor.ingest(stream)
        assert seen == [len(c) for c in chunk_stream(stream, CHUNK)]

    def test_prefetched_chunks_fire_once_per_chunk(self, line3_query, stream):
        ingestor = BatchIngestor(ReservoirJoin(line3_query, K), chunk_size=CHUNK)
        seen = []
        ingestor.add_boundary_hook(lambda items: seen.append(len(items)))
        for piece in prefetched(chunk_stream(stream, CHUNK)):
            ingestor.ingest_batch(piece)
        assert seen == [len(c) for c in chunk_stream(stream, CHUNK)]


# ---------------------------------------------------------------------- #
# SampleServer epochs and snapshot isolation
# ---------------------------------------------------------------------- #
class TestSampleServer:
    def test_epoch_counts_chunk_boundaries(self, line3_query, stream):
        server = SampleServer(
            BatchIngestor(ReservoirJoin(line3_query, K), chunk_size=CHUNK)
        )
        assert server.epoch == 0
        for expected, piece in enumerate(chunk_stream(stream, CHUNK), start=1):
            server.ingest_batch(piece)
            assert server.epoch == expected

    def test_snapshot_is_bit_identical_to_standalone_prefix(
        self, line3_query, stream
    ):
        server = SampleServer(
            BatchIngestor(
                ReservoirJoin(line3_query, K, rng=random.Random(21)),
                chunk_size=CHUNK,
            )
        )
        standalone = BatchIngestor(
            ReservoirJoin(line3_query, K, rng=random.Random(21)), chunk_size=CHUNK
        )
        for piece in chunk_stream(stream, CHUNK):
            server.ingest_batch(piece)
            standalone.ingest_batch(piece)
            assert server.snapshot().sample() == list(standalone.sampler.sample)

    def test_snapshot_isolation_from_later_chunks(self, line3_query, stream):
        server = SampleServer(
            BatchIngestor(ReservoirJoin(line3_query, K), chunk_size=CHUNK)
        )
        pieces = list(chunk_stream(stream, CHUNK))
        for piece in pieces[: len(pieces) // 2]:
            server.ingest_batch(piece)
        snap = server.snapshot()
        frozen = snap.sample()
        for piece in pieces[len(pieces) // 2 :]:
            server.ingest_batch(piece)
        assert snap.sample() == frozen          # old cut untouched
        assert snap.epoch == len(pieces) // 2
        assert server.snapshot().epoch == len(pieces)

    def test_snapshot_cache_reuse_and_staleness_policy(self, line3_query, stream):
        server = SampleServer(
            BatchIngestor(ReservoirJoin(line3_query, K), chunk_size=CHUNK)
        )
        server.subscribe("all", lambda pair: True, k=4)
        pieces = list(chunk_stream(stream, CHUNK))
        server.ingest_batch(pieces[0])
        first = server.snapshot()
        assert server.snapshot() is first       # same epoch: cache hit
        server.ingest_batch(pieces[1])
        assert server.snapshot(max_staleness=1) is first   # stale but allowed
        fresh = server.snapshot()               # staleness 0: must recapture
        assert fresh is not first and fresh.epoch == 2
        stats = server.statistics()
        assert stats["snapshots_taken"] == 2
        assert stats["snapshot_cache_hits"] == 2
        assert stats["reads_served"] == 0       # snapshot() alone is no read

        # reads_served counts every server.sample / view_sample call, from
        # any number of threads; a rejected read is not counted.
        def read(times):
            for _ in range(times):
                server.sample(3, max_staleness=1)
                server.view_sample("all", max_staleness=1)

        readers = [threading.Thread(target=read, args=(25,)) for _ in range(4)]
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join()
        read(1)
        with pytest.raises(ValueError):
            server.sample(0)
        stats = server.statistics()
        assert stats["reads_served"] == 2 * (4 * 25 + 1)
        assert stats["snapshots_taken"] == 2    # every read hit the cut

    def test_subset_sampling_and_argument_validation(self, line3_query, stream):
        server = SampleServer(
            BatchIngestor(ReservoirJoin(line3_query, K), chunk_size=CHUNK)
        ).ingest(stream)
        snap = server.snapshot()
        full = snap.sample()
        subset = snap.sample(3, rng=random.Random(1))
        assert len(subset) == 3
        assert all(result in full for result in subset)
        assert subset == snap.sample(3, rng=random.Random(1))  # deterministic
        assert snap.sample(10 ** 6) == full     # k >= reservoir: the whole thing
        with pytest.raises(ValueError):
            snap.sample(0)
        with pytest.raises(ValueError):
            server.snapshot(max_staleness=-1)

    def test_bare_sampler_is_served_through_a_batch_ingestor(self):
        sampler = PredicateStreamSampler(K, is_even, rng=random.Random(1))
        with pytest.raises(TypeError, match="BatchIngestor"):
            SampleServer(sampler)
        server = SampleServer(BatchIngestor(sampler, chunk_size=CHUNK))
        server.ingest_batch([("S", (i,)) for i in range(40)])
        assert server.epoch == 1
        sample = server.snapshot().sample()
        assert sample and all(row["item"] % 2 == 0 for row in sample)

    def test_cache_hit_takes_no_writer_lock(self, line3_query, stream):
        server = SampleServer(
            BatchIngestor(
                ReservoirJoin(line3_query, K, rng=random.Random(3)), chunk_size=CHUNK
            ),
            rng=random.Random(4),
        )
        pieces = list(chunk_stream(stream, CHUNK))
        for piece in pieces[:-1]:
            server.ingest_batch(piece)
        cached = server.snapshot()
        server.ingest_batch(pieces[-1])         # the cached cut is one epoch old
        served = {}

        def read(name, staleness):
            served[name] = server.sample(3, max_staleness=staleness)

        hit = threading.Thread(target=read, args=("hit", 1))
        miss = threading.Thread(target=read, args=("miss", 0))
        with server._lock:                      # as a writer mid-chunk holds it
            hit.start()
            hit.join(timeout=1)
            assert not hit.is_alive()
            miss.start()
            miss.join(timeout=0.2)
            assert miss.is_alive()              # a miss waits for the writer
        miss.join(timeout=5)
        assert not miss.is_alive()
        full = cached.sample()
        assert len(served["hit"]) == 3 and all(row in full for row in served["hit"])
        assert len(served["miss"]) == 3
        stats = server.statistics()
        assert stats["snapshot_cache_hits"] == 1
        assert stats["snapshots_taken"] == 2
        assert server.snapshot(max_staleness=1).epoch == len(pieces)


# ---------------------------------------------------------------------- #
# Served subset draws: the stdlib's partial Fisher–Yates, from the cut's RNG
# ---------------------------------------------------------------------- #
def pool_branch_cases():
    """``(n, k)`` pairs on which ``random.Random.sample`` shuffles a list
    pool: ``n <= 21``, or ``n <= 21 + 4 ** ceil(log4(3k))`` for ``k > 5``."""
    cases = [(n, k) for n in range(1, 22) for k in range(1, n + 1)]
    for k in (6, 7, 20, 50, 100):
        limit = 21 + 4 ** math.ceil(math.log(3 * k, 4))
        cases += [(limit, k), (limit, 1), (k + 1, k), (limit, limit - 1), (limit, limit)]
    cases.append((1000, 100))               # serve-chain3's read of its cut
    return cases


class TestServedDraws:
    def test_subset_equals_stdlib_sample_and_its_draws(self):
        for n, k in pool_branch_cases():
            population = [("result", position) for position in range(n)]
            for seed in range(3):
                ours, stdlib = random.Random(seed), random.Random(seed)
                assert server_module._subset(population, k, ours) == stdlib.sample(
                    population, k
                ), (n, k, seed)
                assert ours.getstate() == stdlib.getstate(), (n, k, seed)

    def six_result_cut(self, line3_query, stream, seed=13):
        server = SampleServer(
            BatchIngestor(
                ReservoirJoin(line3_query, 6, rng=random.Random(seed)), chunk_size=CHUNK
            ),
            rng=random.Random(seed + 1),
        ).ingest(stream)
        snap = server.snapshot()
        assert len(snap.sample()) == 6
        return server, snap

    def test_reads_of_one_cut_are_uniform_and_independent(self, line3_query, stream):
        _, snap = self.six_result_cut(line3_query, stream)
        subsets = [
            frozenset(result_key(row) for row in snap.sample(3)) for _ in range(20_000)
        ]
        assert all(len(subset) == 3 for subset in subsets)
        singles = Counter(subsets)
        assert len(singles) == math.comb(6, 3)
        _, p_value = chi_square_uniformity(singles, 20, len(subsets), 1)
        assert p_value > 0.001, p_value
        # Consecutive reads, as disjoint (first, second) pairs: every one of
        # the 400 ordered pairs of subsets is equally likely.
        pairs = Counter(zip(subsets[0::2], subsets[1::2]))
        _, p_value = chi_square_uniformity(pairs, 20 * 20, len(subsets) // 2, 1)
        assert p_value > 0.001, p_value

    def test_concurrent_reads_lose_no_draw_and_no_count(self, line3_query, stream):
        # More reader threads than cores, switching as often as the
        # interpreter allows: reads of one cut take the cut's RNG in turn,
        # so together they draw exactly what one thread's reads would.
        server, _ = self.six_result_cut(line3_query, stream)
        _, twin = self.six_result_cut(line3_query, stream)
        lanes = [[] for _ in range(8)]

        def read(lane):
            for _ in range(200):
                lane.append(tuple(map(result_key, server.sample(3))))

        readers = [threading.Thread(target=read, args=(lane,)) for lane in lanes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        served = Counter(read for lane in lanes for read in lane)
        alone = Counter(tuple(map(result_key, twin.sample(3))) for _ in range(8 * 200))
        assert served == alone
        stats = server.statistics()
        assert stats["reads_served"] == stats["snapshot_cache_hits"] == 8 * 200
        assert stats["snapshots_taken"] == 1

    def test_co_seeded_servers_serve_the_same_reads(self, line3_query, stream):
        reads = []
        for _ in range(2):
            server, snap = self.six_result_cut(line3_query, stream)
            reads.append(
                [snap.sample(3) for _ in range(20)]
                + [server.sample(2, max_staleness=1) for _ in range(20)]
            )
        assert reads[0] == reads[1]
        assert len({tuple(map(result_key, read)) for read in reads[0]}) > 1


# ---------------------------------------------------------------------- #
# The epoch record: a cut copies reservoirs, never the ingestor
# ---------------------------------------------------------------------- #
TARGETS = ["batch", "turnstile"]


def build_target(kind, query):
    """A served ingestor over an insert-only or a turnstile sampler,
    seeded for reproducible reads."""
    sampler_cls = ReservoirJoin if kind == "batch" else TurnstileReservoirJoin
    return BatchIngestor(sampler_cls(query, K, rng=random.Random(5)), chunk_size=CHUNK)


@pytest.fixture
def no_backend_copies(monkeypatch):
    """Make any whole-state copy inside the serving layer fail loudly."""

    def forbidden(*args, **kwargs):
        raise AssertionError("an epoch cut copied the ingestor's whole state")

    monkeypatch.setattr(server_module, "snapshot_backend", forbidden)
    monkeypatch.setattr(server_module, "restore_backend", forbidden)


class TestEpochRecord:
    @pytest.mark.parametrize("kind", TARGETS)
    def test_cut_never_copies_the_ingestor(
        self, line3_query, stream, kind, no_backend_copies
    ):
        server = SampleServer(build_target(kind, line3_query), rng=random.Random(6))
        server.subscribe("evens", lambda pair: pair[1][0] % 2 == 0, k=4)
        pieces = list(chunk_stream(stream, CHUNK))
        for piece in pieces[: len(pieces) // 2]:
            server.ingest_batch(piece)
        snap = server.snapshot()
        assert snap.epoch == server.epoch > 0
        served = snap.sample(K, rng=random.Random(3))
        view = snap.view_sample("evens")
        assert len(served) == K
        assert all(set(row) == set(line3_query.attributes) for row in served)
        assert len(view) == 4
        assert all(row["item"][1][0] % 2 == 0 for row in view)
        for piece in pieces[len(pieces) // 2 :]:
            server.ingest_batch(piece)
        assert snap.sample(K, rng=random.Random(3)) == served
        assert snap.view_sample("evens") == view
        assert server.snapshot().epoch > snap.epoch

    def test_cut_size_does_not_grow_with_the_stream(self, line3_query):
        sizes = []
        for n in (N_TUPLES, 8 * N_TUPLES):
            server = SampleServer(
                BatchIngestor(
                    ReservoirJoin(line3_query, K, rng=random.Random(2)),
                    chunk_size=CHUNK,
                ),
                rng=random.Random(3),
            ).ingest(line3_stream(line3_query, n, seed=7))
            snap = server.snapshot()
            assert len(snap.sample()) == K
            sizes.append(deep_sizeof(snap))
        small, large = sizes
        # Not exactly equal: deep_sizeof counts an int object shared by
        # several results once, and the sharing differs between the runs.
        assert large <= 1.05 * small, sizes

    @pytest.mark.parametrize("kind", TARGETS)
    @pytest.mark.parametrize("epochs", [0, 1])
    def test_non_positive_k_is_rejected_at_every_epoch(
        self, line3_query, stream, kind, epochs
    ):
        server = SampleServer(build_target(kind, line3_query))
        for piece in list(chunk_stream(stream, CHUNK))[:epochs]:
            server.ingest_batch(piece)
        snap = server.snapshot()
        for k in (0, -1):
            with pytest.raises(ValueError):
                snap.sample(k)
            with pytest.raises(ValueError):
                server.sample(k)
        if not epochs:
            assert snap.sample() == []


# ---------------------------------------------------------------------- #
# Predicate views
# ---------------------------------------------------------------------- #
class TestPredicateViews:
    def test_view_samples_matching_items_and_freezes_with_the_cut(
        self, line3_query, stream
    ):
        server = SampleServer(
            BatchIngestor(ReservoirJoin(line3_query, K), chunk_size=CHUNK),
            rng=random.Random(13),
        )
        server.subscribe(
            "evens", lambda pair: pair[1][0] % 2 == 0, k=100
        )
        pieces = list(chunk_stream(stream, CHUNK))
        for piece in pieces[: len(pieces) // 2]:
            server.ingest_batch(piece)
        mid = server.snapshot()
        mid_view = mid.view_sample("evens")
        expected_mid = {
            result_key({"item": (item.relation, item.row)})
            for item in stream[: (len(pieces) // 2) * CHUNK]
            if item.row[0] % 2 == 0
        }
        assert {result_key(row) for row in mid_view} == expected_mid
        for piece in pieces[len(pieces) // 2 :]:
            server.ingest_batch(piece)
        assert mid.view_sample("evens") == mid_view     # frozen with the cut
        final_view = server.snapshot().view_sample("evens")
        assert len(final_view) > len(mid_view)

    def test_views_take_the_inserts_of_a_turnstile_chunk(self, line3_query):
        server = SampleServer(
            BatchIngestor(
                TurnstileReservoirJoin(line3_query, K, rng=random.Random(4)),
                chunk_size=CHUNK,
            ),
            rng=random.Random(5),
        )
        server.subscribe("all", lambda pair: True, k=4)
        server.ingest_batch([StreamTuple("R1", (1, 2))])
        # A retraction is not a stream item a view samples: the view takes
        # the chunk's insert, and the ingestor both of its items.
        server.ingest_batch(
            [StreamDelete("R1", (1, 2)), StreamTuple("R1", (5, 2))]
        )
        assert server.epoch == 2
        snap = server.snapshot()
        assert snap.view_sample("all") == [
            {"item": ("R1", (1, 2))},
            {"item": ("R1", (5, 2))},
        ]

    def test_subscription_validation(self, line3_query):
        server = SampleServer(
            BatchIngestor(ReservoirJoin(line3_query, K), chunk_size=CHUNK)
        )
        server.subscribe("v", lambda pair: True, k=4)
        with pytest.raises(ValueError):
            server.subscribe("v", lambda pair: True, k=4)
        with pytest.raises(TypeError):
            server.subscribe("w", "not-callable", k=4)
        with pytest.raises(KeyError):
            server.snapshot().view_sample("missing")


# ---------------------------------------------------------------------- #
# PeriodicCheckpointer (timer mechanics; crash/recovery in test_checkpoint)
# ---------------------------------------------------------------------- #
class TestPeriodicCheckpointer:
    def test_interval_gates_saves_on_a_fake_clock(
        self, line3_query, stream, tmp_path
    ):
        now = [0.0]
        ingestor = BatchIngestor(ReservoirJoin(line3_query, K), chunk_size=CHUNK)
        checkpointer = PeriodicCheckpointer(
            ingestor, str(tmp_path / "periodic.ckpt"), interval_seconds=10.0,
            clock=lambda: now[0],
        ).install()
        pieces = list(chunk_stream(stream, CHUNK))
        ingestor.ingest_batch(pieces[0])        # t=0: interval not yet elapsed
        assert checkpointer.checkpoints_written == 0
        now[0] = 10.0
        ingestor.ingest_batch(pieces[1])        # t=10: due
        assert checkpointer.checkpoints_written == 1
        ingestor.ingest_batch(pieces[2])        # still t=10: not due again
        assert checkpointer.checkpoints_written == 1
        now[0] = 25.0
        ingestor.ingest_batch(pieces[3])
        assert checkpointer.checkpoints_written == 2
        stats = checkpointer.statistics()
        assert stats["boundaries_seen"] == 4
        assert stats["checkpoints_written"] == 2

    def test_install_guards_and_validation(self, line3_query, tmp_path):
        ingestor = BatchIngestor(ReservoirJoin(line3_query, K), chunk_size=CHUNK)
        checkpointer = PeriodicCheckpointer(
            ingestor, str(tmp_path / "x.ckpt"), interval_seconds=0.0
        ).install()
        with pytest.raises(RuntimeError):
            checkpointer.install()
        with pytest.raises(ValueError):
            PeriodicCheckpointer(ingestor, str(tmp_path / "y.ckpt"), -1.0)
        with pytest.raises(TypeError):
            PeriodicCheckpointer(object(), str(tmp_path / "z.ckpt"), 1.0)
