"""The turnstile sampler's count-free re-anchor and its invariants.

``TurnstileReservoirJoin`` never counts the surviving join on its ingest
path.  A delete run probes the reservoir for held results that project onto
a removed row, and refills only when one died, by the order statistics of
lazily generated keys over the padded join array.  These tests pin that
down:

* ``check_invariants`` (the reservoir holds ``min(k, |Q'|)`` live results
  against a full recount, ``w`` matches the fill state, no tombstone names a
  live row) holds after every call, over several query shapes, with
  grouping on and off, per tuple and chunked, with early tombstones, under
  window expiry and across a snapshot restore, and it catches planted
  corruptions;
* samples, ``evictions`` and ``refills`` are bit-identical to an oracle that
  finds the dead results by scanning every held result against the
  database;
* no ingest, delete or expiry path runs ``count_results``;
* a call that fails validation leaves the sampler untouched.
"""

from __future__ import annotations

import math
import random
import sys
from typing import List

import pytest

from repro import (
    BatchIngestor,
    JoinQuery,
    StreamDelete,
    StreamTuple,
    TurnstileReservoirJoin,
    WindowedSampler,
    turnstile_stream,
)
from repro.core.backend import restore_backend, snapshot_backend
from repro.relational.join import count_results


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


class FullScanOracle(TurnstileReservoirJoin):
    """The same order-statistic refill, but dead results are found by
    checking every held result's rows against the database after each delete
    run, instead of probing the reservoir with the run's removed rows."""

    def _resample_after_deletes(self, removed) -> None:
        database = self.index.database
        sample = self.reservoir.sample
        live = [
            result
            for result in sample
            if all(
                tuple(result[attr] for attr in schema.attrs) in database[schema.name]
                for schema in self.query.relations
            )
        ]
        if len(live) == len(sample):
            return
        self.evictions += len(sample) - len(live)
        w = self.reservoir.w
        if not math.isinf(w):
            w = self._refill(live, self.k - len(live), w)
        self.reservoir.rebase_population(live, w)


# ---------------------------------------------------------------------- #
# The reservoir tracks the exact surviving count.  The sampler keeps no
# count of its own; check_invariants compares the reservoir against a full
# recount after every call.
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
        sampler.check_invariants()
    assert sampler.annihilations > 0
    assert sampler.evictions > 0


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
@pytest.mark.parametrize("grouping", [False, True])
@pytest.mark.parametrize("chunk_size", [1, 6, 25])
def test_tracked_count_chunked(query, grouping, chunk_size):
    stream = mixed_stream(query, 9)
    sampler = TurnstileReservoirJoin(query, k=7, rng=random.Random(9), grouping=grouping)
    for start in range(0, len(stream), chunk_size):
        sampler.ingest_batch(stream[start:start + chunk_size])
        sampler.check_invariants()
    assert sampler.evictions > 0


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
@pytest.mark.parametrize("mode", ["count", "timestamp"])
def test_tracked_count_under_window_expiry(query, mode):
    stream = mixed_stream(query, 13)
    sampler = WindowedSampler(query, k=7, window=30, rng=random.Random(13), mode=mode)
    for start in range(0, len(stream), 8):
        sampler.ingest_batch(stream[start:start + 8])
        sampler.check_invariants()
    assert sampler.expirations > 0


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
def test_tracked_count_reseeds_after_restore(query):
    stream = mixed_stream(query, 17)
    cut = len(stream) // 2
    sampler = TurnstileReservoirJoin(query, k=7, rng=random.Random(17))
    sampler.ingest_batch(stream[:cut])
    restored = restore_backend(snapshot_backend(sampler))
    restored.check_invariants()
    for start in range(cut, len(stream), 5):
        restored.ingest_batch(stream[start:start + 5])
        sampler.ingest_batch(stream[start:start + 5])
        restored.check_invariants()
        assert list(restored.sample) == list(sampler.sample)
        assert restored.reservoir.w == sampler.reservoir.w
    assert restored.statistics() == sampler.statistics()


# ---------------------------------------------------------------------- #
# check_invariants catches planted corruption
# ---------------------------------------------------------------------- #
def _full_sampler() -> TurnstileReservoirJoin:
    sampler = TurnstileReservoirJoin(TWO, k=5, rng=random.Random(2))
    sampler.ingest_batch(
        [StreamTuple("R", (a, b)) for a in range(4) for b in range(3)]
        + [StreamTuple("S", (b, c)) for b in range(3) for c in range(4)]
    )
    sampler.check_invariants()
    assert len(sampler.sample) == 5 and not math.isinf(sampler.reservoir.w)
    return sampler


def test_invariants_catch_a_dead_held_result():
    sampler = _full_sampler()
    held = sampler.sample[0]
    # Delete the row behind the database's back: no eviction runs.
    sampler.index.database.delete("R", (held["a"], held["b"]))
    with pytest.raises(RuntimeError, match="dead"):
        sampler.check_invariants()


def test_invariants_catch_finite_w_below_k():
    sampler = _full_sampler()
    sampler.reservoir._sample.pop()
    with pytest.raises(RuntimeError):
        sampler.check_invariants()


def test_invariants_catch_inf_w_with_a_full_reservoir():
    sampler = _full_sampler()
    sampler.reservoir._w = math.inf
    with pytest.raises(RuntimeError, match="w = inf"):
        sampler.check_invariants()


def test_invariants_catch_a_tombstone_on_a_live_row():
    sampler = _full_sampler()
    sampler._pending[("R", (0, 0))] = 1
    with pytest.raises(RuntimeError, match="tombstone"):
        sampler.check_invariants()


def test_invariants_catch_a_stamp_behind_the_horizon():
    sampler = WindowedSampler(TWO, k=5, window=4, rng=random.Random(3))
    for value in range(8):
        sampler.ingest_batch([StreamTuple("R", (value, 1)), StreamTuple("S", (1, value))])
    sampler.check_invariants()
    sampler._stamps[("R", (0, 1))] = sampler._horizon()
    with pytest.raises(RuntimeError, match="horizon"):
        sampler.check_invariants()


def test_invariants_catch_a_stamp_of_a_dead_row():
    sampler = WindowedSampler(TWO, k=5, window=4, rng=random.Random(3))
    for value in range(8):
        sampler.ingest_batch([StreamTuple("R", (value, 1)), StreamTuple("S", (1, value))])
    assert ("R", (0, 1)) not in sampler._stamps  # expired long ago
    sampler._stamps[("R", (0, 1))] = sampler._horizon() + 1
    with pytest.raises(RuntimeError, match="not live"):
        sampler.check_invariants()


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
    old = FullScanOracle(query, k=5, rng=random.Random(seed), grouping=grouping)
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
    old = FullScanOracle(query, k=9, rng=random.Random(23), grouping=grouping)
    for ingestor in (BatchIngestor(new, chunk_size=chunk_size), BatchIngestor(old, chunk_size=chunk_size)):
        ingestor.ingest(stream)
    assert new.sample == old.sample
    assert _counters(new) == _counters(old)
    assert new.evictions > 0


class WindowedOracle(WindowedSampler, FullScanOracle):
    """The window over the full-scan eviction check."""


@pytest.mark.parametrize("mode", ["count", "timestamp"])
def test_bit_identical_to_oracle_windowed(mode):
    stream = mixed_stream(CHAIN3, 29, n=240)
    new = WindowedSampler(CHAIN3, k=9, window=40, rng=random.Random(29), mode=mode)
    old = WindowedOracle(CHAIN3, k=9, window=40, rng=random.Random(29), mode=mode)
    for start in range(0, len(stream), 10):
        new.ingest_batch(stream[start:start + 10])
        old.ingest_batch(stream[start:start + 10])
        assert new.sample == old.sample
    assert _counters(new) == _counters(old)
    assert new.expirations == old.expirations > 0


# ---------------------------------------------------------------------- #
# No ingest path counts the join
# ---------------------------------------------------------------------- #
def _forbid_count_results(monkeypatch) -> None:
    """Make every module's binding of ``count_results`` raise."""

    def forbidden(query, database):
        raise AssertionError("count_results ran on the ingest path")

    for module in list(sys.modules.values()):
        if getattr(module, "count_results", None) is count_results:
            monkeypatch.setattr(module, "count_results", forbidden)


@pytest.mark.parametrize("kind", ["plain", "windowed", "ingestor"])
def test_ingest_runs_no_count_pass(monkeypatch, kind):
    stream = mixed_stream(CHAIN3, 37, n=400)
    if kind == "plain":
        target = TurnstileReservoirJoin(CHAIN3, k=9, rng=random.Random(37))
    elif kind == "windowed":
        target = WindowedSampler(CHAIN3, k=9, window=50, rng=random.Random(37))
    else:
        target = BatchIngestor(
            TurnstileReservoirJoin(CHAIN3, k=9, rng=random.Random(37)), chunk_size=8
        )
    deletes = [item for item in stream if isinstance(item, StreamDelete)][:20]
    _forbid_count_results(monkeypatch)
    for start in range(0, len(stream), 4):
        target.ingest_batch(stream[start:start + 4])
    if kind == "ingestor":
        target.ingest_batch(deletes)
        sampler = target.sampler
    else:
        target.delete_batch(deletes)
        sampler = target
    monkeypatch.undo()
    assert sampler.statistics()["evictions"] > 10
    if kind == "windowed":
        assert target.expirations > 0
    sampler.check_invariants()


def test_insert_only_stream_never_recounts(monkeypatch):
    sampler = TurnstileReservoirJoin(TWO, k=4, rng=random.Random(0))
    rng = random.Random(1)
    _forbid_count_results(monkeypatch)
    sampler.ingest_batch(
        [StreamTuple(name, random_row(TWO, name, rng)) for name in ["R", "S"] * 50]
    )
    assert len(sampler.sample) == 4


# ---------------------------------------------------------------------- #
# Atomic chunks: a failed call changes nothing
# ---------------------------------------------------------------------- #
def _loaded_sampler() -> TurnstileReservoirJoin:
    sampler = TurnstileReservoirJoin(TWO, k=5, rng=random.Random(3))
    for a in range(4):
        for b in range(3):
            sampler.insert("R", (a, b))
            sampler.insert("S", (b, a))
    sampler.delete("R", (0, 0))
    sampler.delete("S", (9, 9))  # plants a tombstone
    return sampler


def _state(sampler: TurnstileReservoirJoin) -> tuple:
    database = sampler.index.database
    return (
        list(sampler.sample),
        dict(sampler._pending),
        sampler.reservoir.w,
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
    # The sampler still works, and its invariants still hold.
    sampler.ingest_batch([StreamDelete("R", (1, 1)), StreamTuple("R", (8, 2))])
    sampler.check_invariants()


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
    """The delete path reads only the stored rows and the reservoir, so it
    adds no relation index."""
    sampler = TurnstileReservoirJoin(query, k=5, rng=random.Random(1), grouping=grouping)
    database = sampler.index.database

    def indexes():
        return {name: set(database[name]._indexes) for name in query.relation_names}

    before = indexes()
    # The deletes ride a later chunk: inside one chunk an insert and its
    # retraction net out and never reach the delete path.
    stream = mixed_stream(query, 3)
    sampler.ingest_batch([item for item in stream if not isinstance(item, StreamDelete)])
    sampler.ingest_batch([item for item in stream if isinstance(item, StreamDelete)])
    assert sampler.deletes_applied > 0
    assert indexes() == before
