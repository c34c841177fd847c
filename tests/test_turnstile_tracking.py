"""The turnstile sampler's tracked surviving count and incremental eviction.

``TurnstileReservoirJoin`` seeds the surviving join size with one
``count_results`` at its first applied delete, then moves it by each row's
``count_containing``, and evicts only the held results that project onto a
row the delete run removed.  These tests pin that down:

* ``count_containing`` agrees with the enumeration-based ``delta_size``;
* the tracked count equals a full recount after every call, over several
  query shapes, with grouping on and off, per tuple and chunked, with early
  tombstones, under window expiry and across a snapshot restore;
* samples, ``evictions`` and ``refills`` are bit-identical to an oracle that
  keeps the full recount and the full liveness scan of every slot;
* ``count_results`` runs once per sampler, and once more after a restore;
* a call that fails validation leaves the sampler untouched.
"""

from __future__ import annotations

import random
from typing import List

import pytest

import repro.core.turnstile as turnstile_module
from repro import (
    BatchIngestor,
    JoinQuery,
    ShardedIngestor,
    StreamDelete,
    StreamTuple,
    TurnstileReservoirJoin,
    WindowedSampler,
    turnstile_stream,
)
from repro.core.backend import restore_backend, snapshot_backend
from repro.relational.database import Database
from repro.relational.join import count_containing, count_results, delta_size
from repro.relational.jointree import JoinTree


TWO = JoinQuery.from_spec("two", {"R": ["a", "b"], "S": ["b", "c"]})
# The middle relation carries an attribute nothing joins on, so grouping
# applies to it in the trees rooted at either end.
CHAIN3 = JoinQuery.from_spec(
    "chain3", {"R": ["a", "b"], "S": ["b", "c", "e"], "T": ["c", "d"]}
)
# Three arms around a hub with a private attribute (grouped when the hub is
# an internal node).
STAR3 = JoinQuery.from_spec(
    "star3",
    {"H": ["a", "b", "c", "h"], "A": ["a", "x"], "B": ["b", "y"], "C": ["c", "z"]},
)
QUERIES = [TWO, CHAIN3, STAR3]

#: Small domains for join attributes (so results are plentiful) and for the
#: private ones (so rows repeat and duplicates get exercised too).
JOIN_DOMAIN = 4
FREE_DOMAIN = 6


def random_row(query: JoinQuery, relation: str, rng: random.Random) -> tuple:
    join_attrs = {
        attr
        for schema in query.relations
        for other in query.relations
        if other.name != schema.name
        for attr in schema.attrs
        if attr in other.attrs
    }
    return tuple(
        rng.randrange(JOIN_DOMAIN if attr in join_attrs else FREE_DOMAIN)
        for attr in query.relation(relation).attrs
    )


def mixed_stream(query: JoinQuery, seed: int, n: int = 160) -> List:
    """Random inserts over every relation, with retractions and tombstones."""
    rng = random.Random(seed)
    names = query.relation_names
    inserts = []
    for ts in range(1, n + 1):
        relation = rng.choice(names)
        inserts.append(StreamTuple(relation, random_row(query, relation, rng), ts))
    return turnstile_stream(
        inserts, random.Random(seed + 1), delete_fraction=0.35, tombstone_fraction=0.15
    )


def assert_tracked(sampler: TurnstileReservoirJoin) -> None:
    """The tracked count, once seeded, equals a full recount."""
    if sampler._population is not None:
        assert sampler._population == count_results(sampler.query, sampler.index.database)


def result_identity(result: dict) -> tuple:
    return tuple(sorted(result.items()))


class FullRecountOracle(TurnstileReservoirJoin):
    """The delete path before count tracking: one full ``count_results`` and
    a liveness scan of every reservoir slot against the database per delete
    run.  It never seeds the tracked count, so nothing else is tracked."""

    def _resample_after_deletes(self, removed) -> None:
        population = count_results(self.query, self.index.database)
        database = self.index.database
        held: set = set()
        live: List[dict] = []
        for result in self.reservoir.sample:
            if all(
                tuple(result[attr] for attr in schema.attrs) in database[schema.name]
                for schema in self.query.relations
            ):
                live.append(result)
                held.add(result_identity(result))
            else:
                self.evictions += 1
        target = min(self.k, population)
        while len(live) < target:
            draw = self.index.sample(self._rng)
            identity = result_identity(draw)
            if identity in held:
                continue
            held.add(identity)
            live.append(draw)
            self.refills += 1
        self.reservoir.rebase_population(live, population)


# ---------------------------------------------------------------------- #
# count_containing
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_count_containing_matches_delta_size(query, seed):
    rng = random.Random(seed)
    database = Database(query)
    for _ in range(60):
        relation = rng.choice(query.relation_names)
        database.insert(relation, random_row(query, relation, rng))
    join_tree = JoinTree(query)
    for relation in query.relation_names:
        tree = join_tree.rooted_at(relation)
        for row in list(database[relation].rows):
            expected = delta_size(query, database, relation, row)
            assert count_containing(tree, database, row) == expected
            # Counted right after its delete, the row's count is what the
            # delete took away.
            database.delete(relation, row)
            assert count_containing(tree, database, row) == expected
            database.insert(relation, row)


# ---------------------------------------------------------------------- #
# The tracked count equals a full recount
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
@pytest.mark.parametrize("grouping", [False, True])
def test_tracked_count_per_tuple(query, grouping):
    sampler = TurnstileReservoirJoin(query, k=7, rng=random.Random(5), grouping=grouping)
    for item in mixed_stream(query, 5):
        if isinstance(item, StreamDelete):
            sampler.delete(item.relation, item.row)
        else:
            sampler.insert(item.relation, item.row)
        assert_tracked(sampler)
    assert sampler._population is not None
    assert sampler.annihilations > 0


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
@pytest.mark.parametrize("grouping", [False, True])
@pytest.mark.parametrize("chunk_size", [1, 6, 25])
def test_tracked_count_chunked(query, grouping, chunk_size):
    stream = mixed_stream(query, 9)
    sampler = TurnstileReservoirJoin(query, k=7, rng=random.Random(9), grouping=grouping)
    for start in range(0, len(stream), chunk_size):
        sampler.ingest_batch(stream[start:start + chunk_size])
        assert_tracked(sampler)
    assert sampler._population is not None


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
@pytest.mark.parametrize("mode", ["count", "timestamp"])
def test_tracked_count_under_window_expiry(query, mode):
    stream = mixed_stream(query, 13)
    sampler = WindowedSampler(query, k=7, window=30, rng=random.Random(13), mode=mode)
    for start in range(0, len(stream), 8):
        sampler.ingest_batch(stream[start:start + 8])
        assert_tracked(sampler._inner)
    assert sampler.expirations > 0
    assert sampler._inner._population is not None


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
def test_tracked_count_reseeds_after_restore(query):
    stream = mixed_stream(query, 17)
    cut = len(stream) // 2
    sampler = TurnstileReservoirJoin(query, k=7, rng=random.Random(17))
    sampler.ingest_batch(stream[:cut])
    assert sampler._population is not None
    restored = restore_backend(snapshot_backend(sampler))
    assert restored._population is None
    for start in range(cut, len(stream), 5):
        restored.ingest_batch(stream[start:start + 5])
        sampler.ingest_batch(stream[start:start + 5])
        assert_tracked(restored)
    assert restored._population == sampler._population
    assert list(restored.sample) == list(sampler.sample)


# ---------------------------------------------------------------------- #
# Bit-identity with the full-recount oracle
# ---------------------------------------------------------------------- #
def _counters(sampler) -> tuple:
    return sampler.evictions, sampler.refills, sampler.deletes_applied


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
@pytest.mark.parametrize("grouping", [False, True])
@pytest.mark.parametrize("seed", [21, 22])
def test_bit_identical_to_oracle_per_tuple(query, grouping, seed):
    stream = mixed_stream(query, seed)
    new = TurnstileReservoirJoin(query, k=5, rng=random.Random(seed), grouping=grouping)
    old = FullRecountOracle(query, k=5, rng=random.Random(seed), grouping=grouping)
    for item in stream:
        new.process([item])
        old.process([item])
        assert new.sample == old.sample
    assert _counters(new) == _counters(old)
    assert new.evictions > 0 and new.refills > 0


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
@pytest.mark.parametrize("grouping", [False, True])
@pytest.mark.parametrize("chunk_size", [1, 7, 32])
def test_bit_identical_to_oracle_chunked(query, grouping, chunk_size):
    stream = mixed_stream(query, 23, n=240)
    new = TurnstileReservoirJoin(query, k=9, rng=random.Random(23), grouping=grouping)
    old = FullRecountOracle(query, k=9, rng=random.Random(23), grouping=grouping)
    for ingestor in (BatchIngestor(new, chunk_size=chunk_size), BatchIngestor(old, chunk_size=chunk_size)):
        ingestor.ingest(stream)
    assert new.sample == old.sample
    assert _counters(new) == _counters(old)
    assert new.evictions > 0


@pytest.mark.parametrize("mode", ["count", "timestamp"])
def test_bit_identical_to_oracle_windowed(mode):
    stream = mixed_stream(CHAIN3, 29, n=240)
    new = WindowedSampler(CHAIN3, k=9, window=40, rng=random.Random(29), mode=mode)
    old = WindowedSampler(CHAIN3, k=9, window=40, rng=random.Random(29), mode=mode)
    old._inner = FullRecountOracle(CHAIN3, k=9, rng=random.Random(29))
    for start in range(0, len(stream), 10):
        new.ingest_batch(stream[start:start + 10])
        old.ingest_batch(stream[start:start + 10])
        assert new.sample == old.sample
    assert _counters(new._inner) == _counters(old._inner)
    assert new.expirations == old.expirations > 0


def test_bit_identical_to_oracle_sharded():
    stream = mixed_stream(TWO, 31, n=300)

    def build(sampler_cls):
        return ShardedIngestor(
            TWO, 6, num_shards=3, chunk_size=16,
            factory=lambda shard, rng: sampler_cls(TWO, 6, rng=rng),
            rng=random.Random(31),
        )

    new, old = build(TurnstileReservoirJoin), build(FullRecountOracle)
    new.ingest_batch(stream)
    old.ingest_batch(stream)
    for mine, theirs in zip(new.samplers, old.samplers):
        assert mine.sample == theirs.sample
        assert _counters(mine) == _counters(theirs)
    assert new.merged_sample(6, rng=random.Random(0)) == old.merged_sample(
        6, rng=random.Random(0)
    )


# ---------------------------------------------------------------------- #
# count_results runs once per sampler
# ---------------------------------------------------------------------- #
@pytest.fixture
def recount_calls(monkeypatch):
    calls = []

    def counting(query, database):
        calls.append(query.name)
        return count_results(query, database)

    monkeypatch.setattr(turnstile_module, "count_results", counting)
    return calls


def test_count_results_runs_once_per_sampler(recount_calls):
    stream = mixed_stream(CHAIN3, 37, n=400)
    sampler = TurnstileReservoirJoin(CHAIN3, k=9, rng=random.Random(37))
    for start in range(0, len(stream), 4):
        sampler.ingest_batch(stream[start:start + 4])
    assert sampler.deletes_applied > 50
    assert len(recount_calls) == 1

    restored = restore_backend(snapshot_backend(sampler))
    for item in mixed_stream(CHAIN3, 38, n=200):
        restored.process([item])
    assert len(recount_calls) == 2


def test_insert_only_stream_never_recounts(recount_calls):
    sampler = TurnstileReservoirJoin(TWO, k=4, rng=random.Random(0))
    rng = random.Random(1)
    sampler.ingest_batch(
        [StreamTuple(name, random_row(TWO, name, rng)) for name in ["R", "S"] * 50]
    )
    assert sampler._population is None
    assert recount_calls == []


# ---------------------------------------------------------------------- #
# Atomic chunks: a failed call changes nothing
# ---------------------------------------------------------------------- #
def _loaded_sampler() -> TurnstileReservoirJoin:
    sampler = TurnstileReservoirJoin(TWO, k=5, rng=random.Random(3))
    for a in range(4):
        for b in range(3):
            sampler.insert("R", (a, b))
            sampler.insert("S", (b, a))
    sampler.delete("R", (0, 0))  # seeds the tracked count
    sampler.delete("S", (9, 9))  # plants a tombstone
    return sampler


def _state(sampler: TurnstileReservoirJoin) -> tuple:
    database = sampler.index.database
    return (
        list(sampler.sample),
        dict(sampler._pending),
        sampler._population,
        {name: set(database[name].rows) for name in TWO.relation_names},
        sampler.statistics(),
        sampler._rng.getstate(),
    )


@pytest.mark.parametrize(
    "call, error",
    [
        # An unknown relation behind two valid deletes.
        (lambda s: s.ingest_batch([StreamDelete("R", (1, 1)), StreamDelete("S", (1, 1)), StreamDelete("X", (1, 1))]), KeyError),
        # A wrong-arity delete would plant a tombstone nothing can annihilate.
        (lambda s: s.ingest_batch([StreamDelete("R", (1, 1)), StreamDelete("R", (1, 1, 1))]), ValueError),
        # Inserts ahead of a bad delete are not absorbed either.
        (lambda s: s.ingest_batch([StreamTuple("R", (7, 1)), ("S", (1, 7)), StreamDelete("X", (1,))]), KeyError),
        (lambda s: s.ingest_batch([StreamDelete("R", (1, 1)), ("S", (1, 2, 3))]), ValueError),
        (lambda s: s.delete_batch([("R", (1, 1)), ("S", (2, 2)), ("X", (1, 1))]), KeyError),
        (lambda s: s.delete_batch([("R", (1, 1)), ("S", (2,))]), ValueError),
        (lambda s: s.delete("X", (1, 1)), KeyError),
        (lambda s: s.delete("R", (1, 1, 1)), ValueError),
    ],
)
def test_failed_call_leaves_sampler_untouched(call, error):
    sampler = _loaded_sampler()
    before = _state(sampler)
    with pytest.raises(error):
        call(sampler)
    assert _state(sampler) == before
    # The sampler still works, and its count is still exact.
    sampler.ingest_batch([StreamDelete("R", (1, 1)), StreamTuple("R", (8, 2))])
    assert_tracked(sampler)


def test_windowed_failed_chunk_leaves_window_untouched():
    sampler = WindowedSampler(TWO, k=5, window=6, rng=random.Random(4))
    sampler.ingest_batch([StreamTuple("R", (1, 1)), StreamTuple("S", (1, 2))])
    before = (dict(sampler._stamps), list(sampler._log), sampler._clock)
    with pytest.raises(KeyError):
        sampler.ingest_batch([StreamTuple("R", (2, 1)), StreamTuple("X", (1, 1))])
    assert (dict(sampler._stamps), list(sampler._log), sampler._clock) == before
    # Expiry later never trips over the rejected items.
    for value in range(10):
        sampler.ingest_batch([StreamTuple("R", (value, 1))])
    assert sampler.expirations > 0


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
@pytest.mark.parametrize("grouping", [False, True])
def test_tracking_adds_no_relation_index(query, grouping):
    """``count_containing`` reads only the semi-join indexes the dynamic
    index already maintains, so tracking adds no per-row state."""
    sampler = TurnstileReservoirJoin(query, k=5, rng=random.Random(1), grouping=grouping)
    database = sampler.index.database

    def indexes():
        return {name: set(database[name]._indexes) for name in query.relation_names}

    before = indexes()
    sampler.ingest_batch(mixed_stream(query, 3))
    assert sampler._population is not None
    assert indexes() == before
