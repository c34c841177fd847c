"""Turnstile streams: deletion-capable and sliding-window sampling.

Covers the whole retraction stack bottom-up — the O(1) relational delete
layer, ``c̃nt`` decrement propagation through the dynamic index, tombstone
semantics (including the edge cases: delete-before-insert, double-delete,
deleting a row that participates in a sampled join result), the per-key fold
of a chunk (in-chunk insert→delete, delete→reinsert of a held row, early
tombstones annihilated in their own chunk), exact-set
agreement with the ``surviving_rows`` reference replay in per-tuple and
chunked ingestion, sliding windows in both count and timestamp modes,
and checkpoint/restore bit-identity (including an expiry landing exactly on
the checkpoint boundary).
"""

from __future__ import annotations

import hashlib
import math
import random
import subprocess
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

from repro import (
    BatchIngestor,
    DynamicJoinIndex,
    JoinQuery,
    ReservoirJoin,
    StreamDelete,
    StreamTuple,
    TurnstileReservoirJoin,
    WindowedSampler,
    surviving_rows,
    turnstile_stream,
)
from repro.core.backend import restore_backend, snapshot_backend
from repro.ingest.checkpoint import CODEC
from repro.relational.database import Database
from repro.relational.join import count_results, join_results
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.relational.stream import as_relation_rows, validated_items

from tests.oracles import result_key, surviving_ground_truth, validate_index


TWO = JoinQuery.from_spec("two", {"R": ["a", "b"], "S": ["b", "c"]})


def two_table_turnstile(seed: int, n: int = 220, delete_fraction: float = 0.3):
    rng = random.Random(seed)
    inserts = []
    for ts in range(1, n + 1):
        if rng.random() < 0.5:
            inserts.append(StreamTuple("R", (rng.randrange(18), rng.randrange(8)), ts))
        else:
            inserts.append(StreamTuple("S", (rng.randrange(8), rng.randrange(18)), ts))
    return turnstile_stream(
        inserts, random.Random(seed + 1),
        delete_fraction=delete_fraction, tombstone_fraction=0.1,
    )


# ---------------------------------------------------------------------- #
# Relational delete layer
# ---------------------------------------------------------------------- #
def test_relation_delete_is_swap_remove():
    relation = Relation(RelationSchema("R", ("a", "b")))
    rows = [(i, i + 1) for i in range(6)]
    relation.insert_many(rows)
    assert relation.delete((2, 3)) is True
    assert relation.delete((2, 3)) is False  # already gone
    assert set(relation.rows) == set(rows) - {(2, 3)}
    assert len(relation.rows) == 5
    # Positions stay consistent after the swap: every row re-deletable.
    for row in sorted(set(rows) - {(2, 3)}):
        assert relation.delete(row) is True
    assert relation.rows == []


def test_database_delete_unknown_relation_raises():
    database = Database(TWO)
    with pytest.raises(KeyError):
        database.delete("T", (1, 2))


def test_index_insert_delete_symmetry():
    """Inserting then deleting everything drains the index to empty, with
    valid invariants at every intermediate step."""
    index = DynamicJoinIndex(TWO, grouping=False)
    rng = random.Random(5)
    rows = [("R", (rng.randrange(9), rng.randrange(5))) for _ in range(40)]
    rows += [("S", (rng.randrange(5), rng.randrange(9))) for _ in range(40)]
    inserted = [
        (relation, row) for relation, row in rows if index.insert(relation, row)
    ]
    validate_index(index)
    rng.shuffle(inserted)
    for step, (relation, row) in enumerate(inserted):
        assert index.delete(relation, row) is True
        if step % 11 == 0:
            validate_index(index)
    validate_index(index)
    assert index.size == 0
    assert index.total_weight() == 0
    assert index.tuples_deleted == len(inserted)
    # Deleting from the empty index is a counted no-op.
    assert index.delete("R", (0, 0)) is False
    assert index.deletes_ignored == 1


def test_grouped_index_delete_symmetry():
    index = DynamicJoinIndex(TWO, grouping=True)
    rng = random.Random(6)
    inserted = []
    for _ in range(60):
        relation = rng.choice(("R", "S"))
        row = (rng.randrange(7), rng.randrange(4)) if relation == "R" else (
            rng.randrange(4), rng.randrange(7)
        )
        if index.insert(relation, row):
            inserted.append((relation, row))
    validate_index(index)
    rng.shuffle(inserted)
    for relation, row in inserted:
        assert index.delete(relation, row) is True
    validate_index(index)
    assert index.size == 0
    assert index.total_weight() == 0


def test_index_sample_excludes_deleted_results():
    index = DynamicJoinIndex(TWO)
    index.insert("R", (1, 10))
    index.insert("R", (2, 10))
    index.insert("S", (10, 7))
    index.delete("R", (1, 10))
    rng = random.Random(0)
    for _ in range(40):
        result = index.sample(rng)
        assert result == {"a": 2, "b": 10, "c": 7}


# ---------------------------------------------------------------------- #
# Tombstone edge cases
# ---------------------------------------------------------------------- #
def test_delete_before_insert_annihilates():
    sampler = TurnstileReservoirJoin(TWO, k=8, rng=random.Random(1))
    assert sampler.delete("R", (1, 2)) is False
    assert sampler.tombstones_pending == 1
    sampler.insert("R", (1, 2))  # annihilated, never lands
    assert sampler.tombstones_pending == 0
    assert sampler.index.size == 0
    sampler.insert("R", (1, 2))  # the second insert is real
    assert sampler.index.size == 1
    stats = sampler.statistics()
    assert stats["annihilations"] == 1
    assert stats["tombstones_pending"] == 0


def test_double_delete_plants_tombstone():
    sampler = TurnstileReservoirJoin(TWO, k=8, rng=random.Random(2))
    sampler.insert("R", (1, 2))
    assert sampler.delete("R", (1, 2)) is True
    assert sampler.delete("R", (1, 2)) is False  # row already gone: pends
    assert sampler.tombstones_pending == 1
    sampler.insert("R", (1, 2))  # annihilated by the second delete
    assert sampler.index.size == 0
    sampler.insert("R", (1, 2))
    assert sampler.index.size == 1


def test_insert_batch_honours_a_pending_tombstone():
    """The inherited bulk insert path annihilates against an early delete
    exactly like ``insert`` does: the row never lands, the tombstone is
    consumed, and no retracted result reaches the reservoir."""
    sampler = TurnstileReservoirJoin(TWO, k=8, rng=random.Random(5))
    assert sampler.delete("R", (1, 2)) is False
    assert sampler.insert_batch([StreamTuple("R", (1, 2)), StreamTuple("S", (2, 3))]) == 1
    assert (1, 2) not in sampler.index.database["R"]
    assert sampler.tombstones_pending == 0
    assert sampler.statistics()["annihilations"] == 1
    assert sampler.sample == []
    sampler.check_invariants()


# ---------------------------------------------------------------------- #
# The per-key fold of a chunk
# ---------------------------------------------------------------------- #
def _ingest_checked(sampler, history, chunk):
    """Ingest one chunk and append it to ``history``; then the invariants
    hold and the stored rows are the surviving rows of ``history``."""
    sampler.ingest_batch(chunk)
    history += chunk
    sampler.check_invariants()
    live = surviving_rows(history)
    for relation in TWO.relation_names:
        assert set(sampler.index.database[relation]) == live.get(relation, set())


def _loaded(k=4, seed=8):
    """A sampler with a full reservoir (finite ``w``) over a few dozen
    results, and the stream it has absorbed."""
    sampler = TurnstileReservoirJoin(TWO, k=k, rng=random.Random(seed))
    history = []
    chunk = [StreamTuple("R", (a, b)) for a in range(4) for b in range(3)]
    chunk += [StreamTuple("S", (b, c)) for b in range(3) for c in range(3)]
    _ingest_checked(sampler, history, chunk)
    assert not math.isinf(sampler.reservoir.w)
    return sampler, history


def test_insert_then_delete_in_one_chunk_never_reaches_the_index():
    sampler, history = _loaded()
    index = sampler.index
    before = (index.tuples_inserted, index.tuples_deleted, sampler.deletes_applied)
    _ingest_checked(sampler, history, [
        StreamTuple("R", (9, 0)), StreamTuple("S", (0, 9)),
        StreamDelete("R", (9, 0)), StreamDelete("S", (0, 9)),
    ])
    assert (index.tuples_inserted, index.tuples_deleted, sampler.deletes_applied) == before


def test_delete_then_reinsert_of_a_held_row_is_a_no_op():
    sampler, history = _loaded()
    held = sampler.sample[0]
    row = (held["a"], held["b"])
    before = (list(sampler.sample), sampler.reservoir.w, sampler._rng.getstate())
    _ingest_checked(sampler, history, [StreamDelete("R", row), StreamTuple("R", row)])
    assert (list(sampler.sample), sampler.reservoir.w, sampler._rng.getstate()) == before
    assert sampler.deletes_applied == 0 and sampler.evictions == 0


def test_early_tombstone_and_its_insert_annihilate_in_one_chunk():
    sampler, history = _loaded()
    inserted = sampler.index.tuples_inserted
    _ingest_checked(sampler, history, [StreamDelete("R", (9, 0)), StreamTuple("R", (9, 0))])
    assert sampler.annihilations == 1 and sampler.tombstones_pending == 0
    assert sampler.index.tuples_inserted == inserted and sampler.deletes_applied == 0


def test_double_delete_of_a_live_row_in_one_chunk_applies_once_and_pends_once():
    sampler, history = _loaded()
    row = ("R", (1, 1))
    _ingest_checked(sampler, history, [StreamDelete(*row), StreamDelete(*row)])
    assert sampler.deletes_applied == 1 and sampler.index.tuples_deleted == 1
    assert sampler._pending == {row: 1}
    # The pending tombstone absorbs the next insert of the row.
    _ingest_checked(sampler, history, [StreamTuple(*row)])
    assert sampler.annihilations == 1 and sampler.tombstones_pending == 0


def test_pending_tombstone_and_two_inserts_leave_one_live_row():
    sampler, history = _loaded()
    _ingest_checked(sampler, history, [StreamDelete("R", (9, 0))])
    assert sampler.tombstones_pending == 1
    processed = sampler.tuples_processed
    chunk = [StreamTuple("R", (9, 0)), StreamTuple("S", (0, 9)), StreamTuple("R", (9, 0))]
    _ingest_checked(sampler, history, chunk)
    assert sampler.annihilations == 1 and sampler.tombstones_pending == 0
    assert (9, 0) in sampler.index.database["R"]
    assert sampler.tuples_processed == processed + 3


def test_ingest_batch_returns_the_rows_a_chunk_makes_live():
    sampler, history = _loaded()
    chunk = [
        StreamTuple("R", (9, 0)), StreamTuple("R", (9, 0)),   # one live, one duplicate
        StreamTuple("R", (8, 0)), StreamDelete("R", (8, 0)),  # nets out
        StreamDelete("R", (7, 0)), StreamTuple("R", (7, 0)),  # annihilates
    ]
    assert sampler.ingest_batch(chunk) == 1
    assert sampler.duplicates_ignored == 1


def _per_item(sampler, item):
    if isinstance(item, StreamDelete):
        sampler.delete(item.relation, item.row)
    else:
        sampler.insert(item.relation, item.row)


def _one_item_batch(sampler, item):
    if isinstance(item, StreamDelete):
        sampler.delete_batch([item])
    else:
        sampler.insert_batch([item])


def _one_item_chunk(sampler, item):
    sampler.ingest_batch([item])


@pytest.mark.parametrize(
    "feed", [_per_item, _one_item_batch, _one_item_chunk],
    ids=["insert-delete", "insert_batch-delete_batch", "ingest_batch"],
)
def test_every_entry_point_matches_process(feed):
    """One turnstile stream (early deletes included) fed item by item through
    each entry point ends bit-identical to ``process``: same reservoir, ``w``
    and counters, and the invariants hold after every call on both."""
    stream = two_table_turnstile(41)
    reference = TurnstileReservoirJoin(TWO, k=6, rng=random.Random(41))
    sampler = TurnstileReservoirJoin(TWO, k=6, rng=random.Random(41))
    for item in stream:
        reference.process([item])
        feed(sampler, item)
        reference.check_invariants()
        sampler.check_invariants()
        assert sampler.sample == reference.sample
    assert sampler.reservoir.w == reference.reservoir.w
    assert sampler.statistics() == reference.statistics()
    stats = reference.statistics()
    assert stats["deletes_applied"] > 0 and stats["annihilations"] > 0


def test_delete_of_sampled_join_participant_evicts():
    sampler = TurnstileReservoirJoin(TWO, k=64, rng=random.Random(3))
    for b in range(3):
        sampler.insert("R", (b, b))
        sampler.insert("S", (b, b + 100))
    assert len(sampler.sample) == 3
    sampler.delete("R", (1, 1))
    keys = {result_key(result) for result in sampler.sample}
    assert keys == {
        result_key({"a": 0, "b": 0, "c": 100}),
        result_key({"a": 2, "b": 2, "c": 102}),
    }
    stats = sampler.statistics()
    assert stats["evictions"] >= 1
    assert stats["deletes_applied"] == 1


def test_delete_batch_accepts_deletes_and_pairs():
    sampler = TurnstileReservoirJoin(TWO, k=4, rng=random.Random(4))
    sampler.insert("R", (1, 2))
    sampler.insert("R", (3, 4))
    removed = sampler.delete_batch([StreamDelete("R", (1, 2)), ("R", (3, 4))])
    assert removed == 2
    assert sampler.index.size == 0
    with pytest.raises(TypeError):
        sampler.delete_batch([StreamTuple("R", (5, 6))])


def test_turnstile_keeps_foreign_key_rows_retractable():
    """The constructor fixes ``foreign_key=False`` and ``maintain_root=True``:
    a key-constrained query keeps its relations unmerged, so a delete of
    the keyed row retracts the join result it made."""
    keyed = JoinQuery.from_spec(
        "keyed", {"R": ["a", "b"], "S": ["b", "c"]}, keys={"S": ["b"]}
    )
    with pytest.raises(TypeError):
        TurnstileReservoirJoin(keyed, k=4, foreign_key=True)
    sampler = TurnstileReservoirJoin(keyed, k=4, rng=random.Random(0))
    assert sampler.index.maintain_root
    sampler.insert("R", (1, 2))
    sampler.insert("S", (2, 3))
    assert sampler.sample == [{"a": 1, "b": 2, "c": 3}]
    assert sampler.delete("S", (2, 3))
    assert sampler.sample == []
    sampler.check_invariants()


# ---------------------------------------------------------------------- #
# Insert-only paths reject retractions loudly
# ---------------------------------------------------------------------- #
def test_insert_only_paths_reject_stream_deletes():
    delete = StreamDelete("R", (1, 2))
    with pytest.raises(TypeError, match="TurnstileReservoirJoin"):
        as_relation_rows([delete])
    with pytest.raises(TypeError):
        validated_items([StreamTuple("R", (0, 0)), delete], TWO)
    sampler = ReservoirJoin(TWO, k=4, rng=random.Random(0))
    with pytest.raises(TypeError):
        sampler.insert_batch([delete])


# ---------------------------------------------------------------------- #
# Exact-set agreement with the reference replay
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_pertuple_matches_surviving_reference(seed):
    stream = two_table_turnstile(seed)
    truth = {result_key(r) for r in surviving_ground_truth(TWO, stream)}
    sampler = TurnstileReservoirJoin(TWO, k=len(truth) + 8, rng=random.Random(seed))
    sampler.process(stream)
    assert {result_key(r) for r in sampler.sample} == truth
    live = surviving_rows(stream)
    for relation in TWO.relation_names:
        assert set(sampler.index.database[relation].rows) == live.get(relation, set())


@pytest.mark.parametrize("chunk_size", [1, 7, 32])
def test_chunked_matches_surviving_reference(chunk_size):
    stream = two_table_turnstile(21)
    truth = {result_key(r) for r in surviving_ground_truth(TWO, stream)}
    sampler = TurnstileReservoirJoin(TWO, k=len(truth) + 8, rng=random.Random(21))
    BatchIngestor(sampler, chunk_size=chunk_size).ingest(stream)
    assert {result_key(r) for r in sampler.sample} == truth


def test_reservoir_size_tracks_surviving_population():
    stream = two_table_turnstile(31, delete_fraction=0.45)
    k = 6
    sampler = TurnstileReservoirJoin(TWO, k=k, rng=random.Random(31))
    sampler.process(stream)
    population = count_results(TWO, sampler.index.database)
    assert len(sampler.sample) == min(k, population)


def test_rebase_population_validates():
    from repro.core.batch_reservoir import BatchedPredicateReservoir
    from repro.core.skippable import ListBatch

    reservoir = BatchedPredicateReservoir(4, rng=random.Random(0))
    with pytest.raises(ValueError):
        reservoir.rebase_population([1, 2, 3], 0.5)  # a finite w needs k items
    with pytest.raises(ValueError):
        reservoir.rebase_population([1, 2, 3, 4], math.inf)  # inf needs fewer
    for w in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            reservoir.rebase_population([1, 2, 3, 4], w)
    assert reservoir.sample == [] and math.isinf(reservoir.w)

    reservoir.rebase_population([1, 2, 3, 4], 0.25)
    assert reservoir.sample == [1, 2, 3, 4] and reservoir.w == 0.25
    reservoir.rebase_population([1, 2], math.inf)
    assert reservoir.sample == [1, 2] and math.isinf(reservoir.w)
    # Back in the fill phase, the next arrivals are appended.
    reservoir.process_batch(ListBatch([5, 6]))
    assert reservoir.sample == [1, 2, 5, 6] and not math.isinf(reservoir.w)


# ---------------------------------------------------------------------- #
# Checkpoint/restore bit-identity
# ---------------------------------------------------------------------- #
def test_turnstile_checkpoint_bit_identity(tmp_path):
    stream = two_table_turnstile(41)
    chunk = 16
    cut = (len(stream) // (2 * chunk)) * chunk

    def build():
        return BatchIngestor(
            TurnstileReservoirJoin(TWO, k=10, rng=random.Random(41)),
            chunk_size=chunk,
        )

    uninterrupted = build()
    uninterrupted.ingest(stream)

    first = build()
    first.ingest(stream[:cut])
    path = tmp_path / "turnstile.ckpt"
    first.save(str(path))
    resumed = BatchIngestor.restore(str(path))
    resumed.ingest(stream[cut:])
    assert list(resumed.sampler.sample) == list(uninterrupted.sampler.sample)
    assert resumed.sampler.statistics() == uninterrupted.sampler.statistics()


def test_snapshot_roundtrip_preserves_tombstones():
    sampler = TurnstileReservoirJoin(TWO, k=4, rng=random.Random(0))
    sampler.delete("R", (9, 9))
    sampler.delete("R", (9, 9))
    restored = restore_backend(snapshot_backend(sampler))
    assert restored.tombstones_pending == 2
    restored.insert("R", (9, 9))
    restored.insert("R", (9, 9))
    assert restored.index.size == 0  # both annihilated
    restored.insert("R", (9, 9))
    assert restored.index.size == 1


# ---------------------------------------------------------------------- #
# Sliding windows
# ---------------------------------------------------------------------- #
def windowed_reference(
    stream, window: int, chunk_size: int
) -> Dict[str, Set[Tuple]]:
    """Independent replay of count-window semantics: per-chunk absorption,
    tombstone resolution, then expiry of stale stamps at the boundary."""
    clock = 0
    live: Dict[Tuple[str, Tuple], int] = {}  # key -> latest stamp
    pending: Dict[Tuple[str, Tuple], int] = {}
    for start in range(0, len(stream), chunk_size):
        for item in stream[start:start + chunk_size]:
            key = (item.relation, item.row)
            if isinstance(item, StreamDelete):
                if key in live:
                    del live[key]
                else:
                    pending[key] = pending.get(key, 0) + 1
                continue
            clock += 1
            if pending.get(key):
                pending[key] -= 1
                if not pending[key]:
                    del pending[key]
                continue
            live[key] = clock  # new row, or refreshed stamp
        horizon = clock - window
        for key in [k for k, stamp in live.items() if stamp <= horizon]:
            del live[key]
    grouped: Dict[str, Set[Tuple]] = {}
    for relation, row in live:
        grouped.setdefault(relation, set()).add(row)
    return grouped


@pytest.mark.parametrize("chunk_size,window", [(1, 25), (8, 40), (16, 64)])
def test_windowed_count_mode_matches_reference(chunk_size, window):
    stream = two_table_turnstile(51)
    sampler = WindowedSampler(TWO, k=500, window=window, rng=random.Random(51))
    BatchIngestor(sampler, chunk_size=chunk_size).ingest(stream)
    reference = windowed_reference(stream, window, chunk_size)
    for relation in TWO.relation_names:
        assert set(sampler.index.database[relation].rows) == reference.get(
            relation, set()
        )
    database = Database(TWO)
    for relation, rows in reference.items():
        for row in rows:
            database.insert(relation, row)
    truth = {result_key(r) for r in join_results(TWO, database)}
    assert {result_key(r) for r in sampler.sample} == truth
    assert sampler.rows_in_window == sum(len(rows) for rows in reference.values())


def test_windowed_timestamp_mode_uses_watermark():
    sampler = WindowedSampler(
        TWO, k=100, window=10, rng=random.Random(0), mode="timestamp"
    )
    sampler.ingest_batch([StreamTuple("R", (1, 1), timestamp=1)])
    sampler.ingest_batch([StreamTuple("S", (1, 5), timestamp=4)])
    assert len(sampler.sample) == 1
    # Watermark jumps to 20: horizon 10 expires both earlier rows.
    sampler.ingest_batch([StreamTuple("R", (2, 2), timestamp=20)])
    assert set(sampler.index.database["R"].rows) == {(2, 2)}
    assert sampler.index.database["S"].rows == []
    assert sampler.sample == []
    assert sampler.statistics()["expirations"] == 2


def test_windowed_timestamp_out_of_order_expiry():
    """An out-of-order item already at/behind the horizon must be expired
    at the same chunk boundary, not deferred behind newer log entries (the
    admission log is a min-heap, not a stamp-ordered list)."""
    sampler = WindowedSampler(
        TWO, k=100, window=10, rng=random.Random(0), mode="timestamp"
    )
    sampler.ingest_batch([StreamTuple("S", (1, 5), timestamp=20)])
    # timestamp=1 is behind the horizon (20 - 10 = 10): the row must not
    # survive the chunk boundary, count as in-window, or feed the sample.
    sampler.ingest_batch([StreamTuple("R", (1, 1), timestamp=1)])
    assert set(sampler.index.database["R"].rows) == set()
    assert set(sampler.index.database["S"].rows) == {(1, 5)}
    assert sampler.rows_in_window == 1
    assert sampler.sample == []
    assert sampler.statistics()["expirations"] == 1


def test_windowed_timestamp_out_of_order_within_window():
    """A late item still inside the window is live, and later expires on
    its own (event-time) schedule."""
    sampler = WindowedSampler(
        TWO, k=100, window=10, rng=random.Random(0), mode="timestamp"
    )
    sampler.ingest_batch([StreamTuple("R", (2, 2), timestamp=20)])
    sampler.ingest_batch([StreamTuple("R", (1, 1), timestamp=15)])  # late, inside
    assert set(sampler.index.database["R"].rows) == {(2, 2), (1, 1)}
    assert sampler.rows_in_window == 2
    # Watermark 26 → horizon 16 expires the stamp-15 row but not stamp-20.
    sampler.ingest_batch([StreamTuple("S", (1, 9), timestamp=26)])
    assert set(sampler.index.database["R"].rows) == {(2, 2)}
    assert sampler.statistics()["expirations"] == 1
    # Watermark 31 → horizon 21 expires the stamp-20 row too.
    sampler.ingest_batch([StreamTuple("S", (2, 9), timestamp=31)])
    assert set(sampler.index.database["R"].rows) == set()
    assert {result_key(r) for r in sampler.sample} == {
        result_key(r)
        for r in join_results(
            TWO, _database_of({"S": {(1, 9), (2, 9)}})
        )
    }


def test_windowed_timestamp_late_duplicate_never_ages_row():
    """Re-admitting a live row with an older timestamp must not shrink its
    remaining lifetime: the effective stamp is the newest one."""
    sampler = WindowedSampler(
        TWO, k=100, window=10, rng=random.Random(0), mode="timestamp"
    )
    sampler.ingest_batch([StreamTuple("R", (1, 1), timestamp=20)])
    sampler.ingest_batch([StreamTuple("R", (1, 1), timestamp=12)])  # late dup
    assert set(sampler.index.database["R"].rows) == {(1, 1)}
    assert sampler.statistics()["expirations"] == 0
    # Horizon 19 is past the stale stamp 12 but not the newest stamp 20.
    sampler.ingest_batch([StreamTuple("S", (1, 9), timestamp=29)])
    assert set(sampler.index.database["R"].rows) == {(1, 1)}
    assert len(sampler.sample) == 1
    # Horizon 21 finally expires it.
    sampler.ingest_batch([StreamTuple("S", (2, 9), timestamp=31)])
    assert set(sampler.index.database["R"].rows) == set()
    assert sampler.sample == []


def test_windowed_stamps_only_rows_live_after_the_chunk():
    """An insert the chunk's fold nets away or annihilates is never stamped
    or logged, yet it still advances the count clock."""
    sampler = WindowedSampler(TWO, k=10, window=1000, rng=random.Random(0))
    for value in range(50):
        sampler.ingest_batch([StreamTuple("R", (value, 1)), StreamDelete("R", (value, 1))])
    assert sampler._stamps == {} and sampler._log == []
    assert sampler.rows_in_window == 0 and sampler.index.size == 0
    # An early tombstone annihilates the later insert: no stamp either.
    sampler.ingest_batch([StreamDelete("S", (1, 2))])
    sampler.ingest_batch([StreamTuple("S", (1, 2))])
    assert sampler._stamps == {} and sampler._log == []
    assert sampler.index.size == 0
    # The clock counted all 51 insert items: the next live row gets 52.
    sampler.ingest_batch([StreamTuple("S", (1, 3))])
    assert sampler._stamps == {("S", (1, 3)): 52}
    assert sampler.rows_in_window == 1


def test_windowed_netted_item_still_advances_the_watermark():
    sampler = WindowedSampler(
        TWO, k=10, window=5, rng=random.Random(0), mode="timestamp"
    )
    sampler.ingest_batch([StreamTuple("R", (1, 1), timestamp=3)])
    # The stamp-9 row nets away, but its timestamp moves the horizon to 4.
    sampler.ingest_batch(
        [StreamTuple("R", (2, 1), timestamp=9), StreamDelete("R", (2, 1))]
    )
    assert set(sampler.index.database["R"].rows) == set()
    assert sampler._stamps == {} and sampler._log == []
    assert sampler.statistics()["expirations"] == 1


@pytest.mark.parametrize("how", ["delete", "delete_batch", "ingest_batch", "same_chunk"])
def test_windowed_delete_drops_the_stamp(how):
    """A re-insert after an explicit delete is a new incarnation: it ages
    from its own timestamp, not from the deleted incarnation's newer one."""
    sampler = WindowedSampler(
        TWO, k=10, window=10, rng=random.Random(0), mode="timestamp"
    )
    sampler.ingest_batch([StreamTuple("R", (1, 1), timestamp=20)])
    reinsert = StreamTuple("R", (1, 1), timestamp=12)
    if how == "delete":
        sampler.delete("R", (1, 1))
    elif how == "delete_batch":
        sampler.delete_batch([("R", (1, 1))])
    elif how == "ingest_batch":
        sampler.ingest_batch([StreamDelete("R", (1, 1))])
    if how == "same_chunk":
        sampler.ingest_batch([StreamDelete("R", (1, 1)), reinsert])
    else:
        assert sampler._stamps == {}
        sampler.ingest_batch([reinsert])
    assert sampler._stamps == {("R", (1, 1)): 12}
    # The watermark moves to 25: horizon 15 is past the re-insert's 12.
    sampler.ingest_batch([StreamTuple("S", (1, 7), timestamp=25)])
    assert (1, 1) not in sampler.index.database["R"]
    assert sampler._stamps == {("S", (1, 7)): 25}
    sampler.check_invariants()


def test_windowed_timestamp_out_of_order_checkpoint_roundtrip(tmp_path):
    """Save/restore straddling out-of-order admissions replays identically —
    the admission-log heap (with its tie-break sequence) rides the snapshot."""
    stream = [
        StreamTuple("R", (1, 1), timestamp=5),
        StreamTuple("S", (1, 5), timestamp=20),
        StreamTuple("R", (2, 2), timestamp=14),   # late, inside window
        StreamTuple("R", (3, 3), timestamp=14),   # same stamp: seq tie-break
        StreamTuple("S", (2, 6), timestamp=3),    # late, behind horizon
        StreamTuple("R", (2, 2), timestamp=22),   # refresh past the horizon
        StreamTuple("S", (3, 7), timestamp=27),
        StreamTuple("S", (2, 8), timestamp=33),
    ]
    chunk = 2
    cut = 4

    def build():
        return BatchIngestor(
            WindowedSampler(
                TWO, k=8, window=10, rng=random.Random(7), mode="timestamp"
            ),
            chunk_size=chunk,
        )

    uninterrupted = build()
    uninterrupted.ingest(stream)
    assert uninterrupted.sampler.statistics()["expirations"] > 0

    first = build()
    first.ingest(stream[:cut])
    path = tmp_path / "ooo.ckpt"
    first.save(str(path))
    resumed = BatchIngestor.restore(str(path))
    resumed.ingest(stream[cut:])
    assert list(resumed.sampler.sample) == list(uninterrupted.sampler.sample)
    assert resumed.sampler.statistics() == uninterrupted.sampler.statistics()


def _database_of(rows_by_relation: Dict[str, Set[Tuple]]) -> Database:
    database = Database(TWO)
    for relation, rows in rows_by_relation.items():
        for row in rows:
            database.insert(relation, row)
    return database


def test_windowed_reinsert_refreshes_stamp():
    sampler = WindowedSampler(TWO, k=10, window=3, rng=random.Random(0))
    sampler.insert("R", (1, 1))          # clock 1
    sampler.insert("S", (1, 9))          # clock 2
    sampler.insert("R", (1, 1))          # clock 3: refresh, duplicate insert
    sampler.insert("S", (2, 2))          # clock 4: horizon 1, nothing stale
    assert (1, 1) in sampler.index.database["R"]
    sampler.insert("S", (3, 3))          # clock 5: horizon 2, S(1,9) expires
    assert (1, 9) not in sampler.index.database["S"]
    assert (1, 1) in sampler.index.database["R"]  # refreshed at clock 3
    sampler.insert("S", (4, 4))          # clock 6: horizon 3, R(1,1) expires
    assert (1, 1) not in sampler.index.database["R"]


def test_window_expiry_on_checkpoint_boundary(tmp_path):
    """Expiries that fire exactly at the checkpoint's chunk boundary must
    replay identically across save/restore."""
    chunk = 16
    window = 16  # every boundary expires exactly the previous chunk's rows
    stream = two_table_turnstile(61, n=128, delete_fraction=0.2)
    cut = (len(stream) // (2 * chunk)) * chunk

    def build():
        return BatchIngestor(
            WindowedSampler(TWO, k=12, window=window, rng=random.Random(61)),
            chunk_size=chunk,
        )

    uninterrupted = build()
    uninterrupted.ingest(stream)
    assert uninterrupted.sampler.statistics()["expirations"] > 0

    first = build()
    first.ingest(stream[:cut])
    path = tmp_path / "windowed.ckpt"
    first.save(str(path))
    resumed = BatchIngestor.restore(str(path))
    assert isinstance(resumed.sampler, WindowedSampler)
    resumed.ingest(stream[cut:])
    assert list(resumed.sampler.sample) == list(uninterrupted.sampler.sample)
    assert resumed.sampler.statistics() == uninterrupted.sampler.statistics()


def test_windowed_sampler_validates_configuration():
    with pytest.raises(ValueError):
        WindowedSampler(TWO, k=4, window=0)
    with pytest.raises(ValueError):
        WindowedSampler(TWO, k=4, window=5, mode="sessions")
    sampler = WindowedSampler(TWO, k=4, window=5)
    other = WindowedSampler(TWO, k=4, window=6)
    with pytest.raises(ValueError):
        other.restore_state(sampler.snapshot_state())


def test_windowed_sampler_is_a_turnstile_sampler():
    sampler = WindowedSampler(TWO, k=6, window=30, rng=random.Random(5))
    assert isinstance(sampler, TurnstileReservoirJoin)
    BatchIngestor(sampler, chunk_size=8).ingest(two_table_turnstile(5, n=160))
    stats = sampler.statistics()
    assert stats["expirations"] > 0 and stats["evictions"] > 0
    for name in (
        "evictions", "refills", "deletes_applied", "tombstones_pending",
        "propagations", "items_examined",
    ):
        assert getattr(sampler, name) == stats[name], name
    sampler.check_invariants()


@pytest.mark.parametrize("how", ["insert", "insert_batch"])
def test_windowed_insert_paths_stamp_and_expire(how):
    sampler = WindowedSampler(TWO, k=10, window=2, rng=random.Random(0))
    rows = [("R", (1, 1)), ("S", (1, 9)), ("S", (1, 8))]
    for relation, row in rows:
        if how == "insert":
            sampler.insert(relation, row)
        else:
            assert sampler.insert_batch([StreamTuple(relation, row)]) == 1
    # Clock 3, horizon 1: R(1, 1) left the window, the two S rows did not.
    assert sampler._stamps == {("S", (1, 9)): 2, ("S", (1, 8)): 3}
    assert (1, 1) not in sampler.index.database["R"]
    assert sampler.expirations == 1
    assert sampler.tuples_processed == 3


def test_windowed_insert_batch_rejects_a_delete_untouched():
    sampler = WindowedSampler(TWO, k=4, window=5, rng=random.Random(0))
    sampler.insert_batch([("R", (1, 1)), ("S", (1, 2))])
    before = sampler.snapshot_state()
    with pytest.raises(TypeError):
        sampler.insert_batch([StreamTuple("R", (2, 2)), StreamDelete("R", (1, 1))])
    assert sampler.snapshot_state() == before


def windowed_fixture_stream() -> List:
    """The stream ``tests/data/windowed.checkpoint`` was cut from: a
    turnstile stream whose insert event times are jittered out of order."""
    jitter = random.Random(94)
    return [
        StreamTuple(item.relation, item.row, max(0, item.timestamp - jitter.randrange(6)))
        if isinstance(item, StreamTuple) else item
        for item in two_table_turnstile(91, n=300)
    ]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_windowed_checkpoint_file_restores_and_resumes():
    """A timestamp-window ``BatchIngestor`` checkpoint, saved after the
    first 192 items of :func:`windowed_fixture_stream` in chunks of 16 (live
    stamps, stale log entries and pending tombstones included; recipe in
    ``tests/data/regenerate.py``), restores and ingests the rest of the
    stream to the digests recorded when the fixture was first written."""
    path = Path(__file__).parent / "data" / "windowed.checkpoint"
    state = CODEC.load(path)["state"]["backend"]
    assert state["class"] == "repro.core.turnstile:WindowedSampler"
    windowed = state["state"]
    assert windowed["kind"] == "windowed" and windowed["mode"] == "timestamp"
    assert len(windowed["log"]) > len(windowed["stamps"]) > 0
    assert windowed["inner"]["pending_tombstones"]
    resumed = BatchIngestor.restore(path)
    assert isinstance(resumed.sampler, WindowedSampler)
    resumed.ingest(windowed_fixture_stream()[192:])
    sampler = resumed.sampler
    assert _digest(sampler.sample) == (
        "eaae89a1c7074ed732c670c1517d3fc04b36a5c1e3111cb27cc7f4652c616a89"
    )
    assert _digest(sampler._rng.getstate()) == (
        "8fdec1327efbdfc5ca35dcf304735baed1ace6ad82d99867a0c9f9f4b1bcf031"
    )
    assert sampler.statistics() == {
        "tuples_processed": 300,
        "duplicates_ignored": 20,
        "stored_tuples": 18,
        "simulated_stream_length": 412,
        "items_examined": 223,
        "sample_size": 7,
        "propagations": 303,
        "deletes_applied": 214,
        "tombstones_pending": 46,
        "annihilations": 37,
        "evictions": 145,
        "refills": 115,
        "window": 40,
        "rows_in_window": 18,
        "expirations": 191,
    }
    sampler.check_invariants()


# ---------------------------------------------------------------------- #
# Stream generator and repo hygiene
# ---------------------------------------------------------------------- #
def test_turnstile_stream_emits_retractions_and_tombstones():
    rng = random.Random(0)
    inserts = [StreamTuple("R", (i, i), i) for i in range(80)]
    stream = turnstile_stream(
        inserts, rng, delete_fraction=0.4, tombstone_fraction=0.2
    )
    deletes = [item for item in stream if isinstance(item, StreamDelete)]
    assert deletes, "no retractions generated"
    live_when_deleted = 0
    seen: Set[Tuple] = set()
    tombstones = 0
    for item in stream:
        key = (item.relation, item.row)
        if isinstance(item, StreamDelete):
            if key in seen:
                live_when_deleted += 1
            else:
                tombstones += 1
        else:
            seen.add(key)
    assert live_when_deleted > 0 and tombstones > 0
    # Timestamps are renumbered consecutively over the merged stream.
    assert [item.timestamp for item in stream] == list(range(len(stream)))
    # The reference replay agrees with a deletion-capable sampler.
    self_join = JoinQuery.from_spec("self", {"R": ["a", "b"]})
    truth = {result_key(r) for r in surviving_ground_truth(self_join, stream)}
    assert truth == {
        result_key({"a": row[0], "b": row[1]})
        for row in surviving_rows(stream).get("R", set())
    }


def test_no_bytecode_tracked_in_git():
    tracked = subprocess.run(
        ["git", "ls-files"], capture_output=True, text=True, check=True,
        cwd=str(__import__("pathlib").Path(__file__).resolve().parent.parent),
    ).stdout.splitlines()
    offenders = [
        path for path in tracked
        if "__pycache__" in path or path.endswith(".pyc")
    ]
    assert offenders == [], f"bytecode artifacts tracked: {offenders}"
