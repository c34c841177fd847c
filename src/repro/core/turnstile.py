"""Turnstile (insert + delete) and sliding-window reservoir sampling.

The paper's machinery is insert-only: every prefix of the stream only ever
grows the join.  This module extends it to *turnstile* streams — interleaved
inserts and retractions — and to sliding windows (retraction by age), while
keeping the per-chunk-boundary guarantee every other ingestion mode offers:

    after each chunk boundary the reservoir is a uniform sample without
    replacement of size ``min(k, |Q'|)`` of the *surviving* join results
    ``Q'`` (the join of everything inserted and not yet retracted).

Uniformity argument (lazy keys)
-------------------------------
Algorithm 4 is Li's Algorithm L: in law every real item carries an i.i.d.
U(0, 1) key, the reservoir ``S`` holds the ``k`` smallest and ``w`` is the
``k``-th smallest, though no key is ever drawn for an item.  A delete run
kills a set ``D ⊆ Q`` of results fixed by the stream, never by the keys.

1. *No sampled result dies.*  Every dead result had a key above ``w``, so
   ``S`` and ``w`` are still the ``k`` smallest keys of ``Q \\ D`` and the
   ``k``-th: nothing changes, no random draw is made, and the pending skip
   stays valid.  In the fill phase (``w = inf``) ``S`` is all of ``Q``; the
   dead results are evicted and the fill phase goes on.
2. *d sampled results die.*  Given ``S`` and ``w``, the keys of the
   surviving results outside ``S`` are i.i.d. U(w, 1), and nothing has
   looked at them yet.  Give each dummy position of the index's padded join
   array (size ``U = total_weight()``) a fresh key from that law too; the
   ``R = U - |live|`` positions not holding a live sampled result then carry
   i.i.d. U(w, 1) keys.  The smallest above ``t`` is
   ``t + (1 - t)(1 - V^{1/R})``, at a uniform one of those positions, which
   a sparse Fisher–Yates draw over ``[0, U)`` picks, passing over live
   sampled positions.  Each drawn candidate decrements ``R``; a real result
   is kept.  After the ``d``-th, ``w' = t``; if the candidates run out
   first, every survivor is held and the fill phase (``w = inf``) resumes.
3. *The run goes on as Algorithm 4.*  The reservoir and ``w'`` are those of
   a key-per-item run over ``Q \\ D`` alone, because ``D`` ignored the keys.
   :meth:`~repro.core.batch_reservoir.BatchedPredicateReservoir
   .rebase_population` installs them and redraws the skip from ``w'``.  No
   step needs the size of the surviving join.

Tombstone lifecycle
-------------------
Streams are set-semantics, but retractions may arrive *before* their insert
(out-of-order feeds).  Every entry point — :meth:`TurnstileReservoirJoin
.insert`, ``insert_batch``, ``delete``, ``delete_batch`` and
``ingest_batch`` — ends in one method, ``_apply``, which folds the chunk per
``(relation, row)`` key before anything touches the index.  Each key starts
from whether its row was live at the chunk start and how many tombstones it
has pending, and takes its operations in stream order:

* an insert consumes a pending tombstone if there is one (an
  *annihilation*); otherwise it is a duplicate if the row is live, and
  makes the row live if not;
* a delete kills a live row, or adds a **pending tombstone** if the row is
  absent (multiset counts, so ``n`` early deletes absorb ``n`` inserts).

A live row never also carries a pending tombstone — deletes of live rows
never pend — so a double-delete of a live row applies once and pends once.
The chunk then reaches the index as one net insert run, the rows absent at
the start and live at the end, followed by one net delete run, the rows
live at the start and dead at the end.  An insert followed by a delete of
the same row inside one chunk never reaches the index, and a delete
followed by a reinsert of a live row is a no-op whose results keep their
keys.  Both are sound by the lazy-key argument above: the set of results a
chunk kills is fixed by the stream, never by the keys, and the guarantee is
claimed at chunk boundaries only.  The reference semantics live in
:func:`repro.relational.stream.surviving_rows`.

Cost: no delete run counts the join.  A chunk makes one bulk index insert
per relation it makes rows live in, one index delete per row it kills, and
at most one eviction pass.  That pass probes the reservoir once, with a
C-level ``isdisjoint`` of the removed rows against the held results'
projections per relation the run touched (``O(k)``, no per-slot state).  A
run that kills ``d`` sampled results then makes an expected ``d · U / |Q'|``
retrievals, ``O(d)`` by the index's density bound; running out of
candidates costs ``O(U)`` and happens only when ``|Q'| < k``.  So the
per-update cost does not grow with the stream, and insert-only streams pay
nothing.  With deletions the index's approximate counters can also shrink,
which voids the insert-only amortised ``O(log N)`` update bound under
adversarial oscillation across a power-of-two boundary; correctness is
unaffected.
"""

from __future__ import annotations

import heapq
import math
import random
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..relational.join import count_results
from ..relational.query import JoinQuery
from ..relational.schema import tuple_getter
from ..relational.stream import StreamDelete, StreamTuple, validate_pairs
from .reservoir import _uniform
from .reservoir_join import ReservoirJoin


class TurnstileReservoirJoin(ReservoirJoin):
    """:class:`~repro.core.reservoir_join.ReservoirJoin` over turnstile streams.

    Accepts :class:`~repro.relational.stream.StreamDelete` items alongside
    inserts — per tuple (:meth:`delete`, a one-item :meth:`delete_batch`),
    per run (:meth:`delete_batch`) or mixed into chunks (:meth:`ingest_batch`,
    which the ingestion seam's :func:`~repro.core.backend.chunk_apply`
    probes first, so this sampler composes under the batched,
    checkpointing and serving modes like any other backend).  Inserts come
    per tuple (:meth:`insert`, a one-item ``insert_batch``) or in bulk.
    Every entry point is a chunk through the same per-key fold, which nets
    the chunk into one bulk insert and one delete run (see "Tombstone
    lifecycle" above).

    Differences from the insert-only sampler:

    * it takes no ``maintain_root`` flag: the full-join structure is always
      maintained, because eviction refills walk the padded full-join array
      (see the module docstring);
    * it takes no ``foreign_key`` flag: the combiner is always off, because
      it merges tuples across relations and a merged row cannot be
      retracted;
    * deletes of absent rows become pending tombstones that annihilate the
      matching later insert (see "Tombstone lifecycle" above).

    :class:`WindowedSampler` is this sampler with retraction by age on top.
    """

    def __init__(
        self,
        query: JoinQuery,
        k: int,
        rng: Optional[random.Random] = None,
        grouping: bool = False,
    ) -> None:
        super().__init__(
            query, k, rng=rng, grouping=grouping, foreign_key=False, maintain_root=True
        )
        # Written into every snapshot; the two other flags are fixed above.
        self._config = {"grouping": grouping}
        self._pending: Dict[Tuple[str, tuple], int] = {}
        self.deletes_applied = 0
        self.annihilations = 0
        self.evictions = 0
        self.refills = 0

    # ------------------------------------------------------------------ #
    # Streaming interface
    # ------------------------------------------------------------------ #
    def insert(self, relation: str, row: Sequence) -> None:
        """Process one insert: a one-item :meth:`insert_batch`."""
        self.insert_batch([(relation, row)])

    def delete(self, relation: str, row: Sequence) -> bool:
        """Process one retraction; returns whether a live row was removed.

        A one-item :meth:`delete_batch`: a retraction of an absent row
        returns ``False`` and records a pending tombstone, and the reservoir
        is re-uniformised immediately, so the per-boundary guarantee holds
        after every call.
        """
        return self.delete_batch([(relation, row)]) == 1

    def delete_batch(self, items: Iterable) -> int:
        """Process a run of retractions; returns how many removed live rows.

        ``items`` are :class:`~repro.relational.stream.StreamDelete`
        instances or plain ``(relation, row)`` pairs.  Dead join results are
        evicted and the reservoir refilled from the surviving population
        once, at the end of the run.  Every item is validated first, so a
        failed call leaves the sampler untouched.
        """
        pairs: List[Tuple[str, tuple]] = []
        for item in items:
            if isinstance(item, StreamDelete):
                pairs.append((item.relation, item.row))
            elif isinstance(item, StreamTuple):
                raise TypeError(
                    "delete_batch received an insert item; use ingest_batch "
                    "for mixed turnstile chunks"
                )
            else:
                relation, row = item
                pairs.append((relation, tuple(row)))
        validate_pairs(pairs, self.original_query)
        return self._apply([(True, key) for key in pairs])[1]

    def ingest_batch(self, items: Sequence) -> int:
        """Absorb one mixed insert/delete chunk; returns the rows it made live.

        The chunk is folded per ``(relation, row)`` key (see "Tombstone
        lifecycle" in the module docstring) and reaches the index as one net
        insert run followed by one net delete run, so uniformity over the
        surviving join holds at the chunk boundary — the contract
        ``insert_batch`` honours for insert-only chunks.  Every item is
        validated before any state changes (``KeyError`` for a relation
        outside the query, ``ValueError`` for a wrong arity), so a failed
        call leaves the sampler untouched.

        The return value and ``deletes_applied`` are net per chunk: a row
        inserted and then retracted inside the chunk counts in neither, nor
        does a live row retracted and then reinserted.  ``annihilations``
        and ``duplicates_ignored`` count the inserts the fold consumed
        against a pending tombstone or found already live.
        """
        tagged: List[Tuple[bool, Tuple[str, tuple]]] = []
        for item in items:
            if isinstance(item, (StreamTuple, StreamDelete)):
                pair = (item.relation, item.row)
            else:
                relation, row = item
                pair = (relation, tuple(row))
            tagged.append((isinstance(item, StreamDelete), pair))
        validate_pairs([pair for _, pair in tagged], self.original_query)
        return self._apply(tagged)[0]

    def process(self, stream: Iterable) -> "TurnstileReservoirJoin":
        """Process a whole (possibly turnstile) stream item by item; returns
        ``self``."""
        for item in stream:
            self.ingest_batch([item])
        return self

    def _insert_pairs(self, pairs: List[Tuple[str, tuple]]) -> int:
        """Validated insert pairs through the fold (``insert_batch``)."""
        return self._apply([(False, key) for key in pairs])[0]

    def _apply(self, tagged: List[Tuple[bool, Tuple[str, tuple]]]) -> Tuple[int, int]:
        """Fold validated ``(is_delete, key)`` operations per key and apply
        the net change; returns ``(rows inserted, rows deleted)``.

        The one place the tombstone rule lives: every entry point ends here.
        """
        database = self.index.database
        pending = self._pending
        # Whether each key's row was live at the chunk start, and is now.
        start: Dict[Tuple[str, tuple], bool] = {}
        live: Dict[Tuple[str, tuple], bool] = {}
        inserts = annihilated = duplicates = 0
        for is_delete, key in tagged:
            if key not in start:
                start[key] = live[key] = key[1] in database[key[0]]
            if is_delete:
                if live[key]:
                    live[key] = False
                else:
                    pending[key] = pending.get(key, 0) + 1
                continue
            inserts += 1
            # A live row never carries a pending tombstone, so this insert
            # annihilates against the row's tombstone before anything else.
            outstanding = pending.get(key, 0)
            if outstanding:
                if outstanding == 1:
                    del pending[key]
                else:
                    pending[key] = outstanding - 1
                annihilated += 1
            elif live[key]:
                duplicates += 1
            else:
                live[key] = True
        self.annihilations += annihilated
        self.duplicates_ignored += duplicates
        net_inserts = [key for key, now in live.items() if now and not start[key]]
        net_deletes = [key for key, now in live.items() if start[key] and not now]
        # The base insert path counts the rows it is handed.
        self.tuples_processed += inserts - len(net_inserts)
        inserted = super()._insert_pairs(net_inserts)
        if net_deletes:
            self._apply_delete_pairs(net_deletes)
        return inserted, len(net_deletes)

    # ------------------------------------------------------------------ #
    # Eviction and refill
    # ------------------------------------------------------------------ #
    def _apply_delete_pairs(self, pairs: List[Tuple[str, tuple]]) -> None:
        """Delete a run of live rows from the index, then re-anchor the
        reservoir once."""
        removed: Dict[str, set] = {}
        for relation, row in pairs:
            self.index.delete(relation, row)
            removed.setdefault(relation, set()).add(row)
        self.deletes_applied += len(pairs)
        self._resample_after_deletes(removed)

    def _resample_after_deletes(self, removed: Dict[str, set]) -> None:
        """Evict dead results and refill by the order statistics of their keys.

        Implements steps 1–3 of the module-docstring uniformity argument.
        ``removed`` holds the rows this run deleted, per relation.  Every
        held result was alive before the run, so it died iff its projection
        onto one of those relations is a removed row.
        """
        sample = self.reservoir.sample
        # A tuple getter reads a result by attribute name the way it reads a
        # stored row by position.
        projections = [
            (tuple_getter(self.query.relation(relation).attrs), rows)
            for relation, rows in removed.items()
        ]
        if all(rows.isdisjoint(map(project, sample)) for project, rows in projections):
            return
        live = sample
        for project, rows in projections:
            live = [result for result in live if project(result) not in rows]
        self.evictions += len(sample) - len(live)
        w = self.reservoir.w
        if not math.isinf(w):
            w = self._refill(live, self.k - len(live), w)
        self.reservoir.rebase_population(live, w)

    def _refill(self, live: List[dict], needed: int, w: float) -> float:
        """Append the ``needed`` surviving results with the smallest keys above
        ``w`` to ``live``; returns the last key revealed, or ``inf`` when the
        candidates ran out (``live`` then holds every survivor)."""
        rng = self._rng
        retrieve = self.index.retrieve
        identity = itemgetter(*self.query.output_attrs())
        held = set(map(identity, live))
        size = self.index.total_weight()
        candidates = size - len(live)
        # Sparse Fisher–Yates over [0, size): positions [0, drawn) are the
        # ones drawn so far, and ``moved`` maps a slot past ``drawn`` to the
        # position swapped into it.
        moved: Dict[int, int] = {}
        drawn = 0
        t = w
        while needed:
            if not candidates:
                return math.inf
            t += (1.0 - t) * -math.expm1(math.log(_uniform(rng)) / candidates)
            while True:
                if drawn == size:
                    raise RuntimeError(
                        "refill ran out of join positions with candidates "
                        "left; the index density invariant is broken"
                    )
                slot = rng.randrange(drawn, size)
                position = moved.get(slot, slot)
                moved[slot] = moved.get(drawn, drawn)
                drawn += 1
                result = retrieve(position)
                if result is None or identity(result) not in held:
                    break
            candidates -= 1
            if result is not None:
                live.append(result)
                self.refills += 1
                needed -= 1
        return t

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict[str, object]:
        state = super().snapshot_state()
        state["pending_tombstones"] = [
            [relation, list(row), count]
            for (relation, row), count in sorted(self._pending.items())
        ]
        state["turnstile_counters"] = {
            "deletes_applied": self.deletes_applied,
            "annihilations": self.annihilations,
            "evictions": self.evictions,
            "refills": self.refills,
        }
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        super().restore_state(state)
        self._pending = {
            (relation, tuple(row)): count
            for relation, row, count in state["pending_tombstones"]
        }
        counters = state["turnstile_counters"]
        self.deletes_applied = counters["deletes_applied"]
        self.annihilations = counters["annihilations"]
        self.evictions = counters["evictions"]
        self.refills = counters["refills"]

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Raise ``RuntimeError`` unless the reservoir holds ``min(k, |Q'|)``
        live results, ``w`` is ``inf`` exactly when it holds fewer than ``k``,
        no pending tombstone names a live row, and every bucket family of the
        index passes :meth:`~repro.index.dynamic_index.DynamicJoinIndex.check_invariants`.

        ``O(N)`` and on demand only: ``|Q'|`` comes from the
        :func:`~repro.relational.join.count_results` oracle.
        """
        self.index.check_invariants()
        database = self.index.database
        held = self.reservoir.sample
        population = count_results(self.query, database)
        if len(held) != min(self.k, population):
            raise RuntimeError(f"{len(held)} results held of {population}, k = {self.k}")
        if math.isinf(self.reservoir.w) != (len(held) < self.k):
            raise RuntimeError(f"w = {self.reservoir.w} with {len(held)} held, k = {self.k}")
        for schema in self.query.relations:
            project = tuple_getter(schema.attrs)
            if any(project(result) not in database[schema.name] for result in held):
                raise RuntimeError(f"a held result is dead: {schema.name} lost its row")
        for relation, row in self._pending:
            if row in database[relation]:
                raise RuntimeError(f"a pending tombstone names the live row {relation}{row}")

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def tombstones_pending(self) -> int:
        """Outstanding early retractions awaiting their insert."""
        return sum(self._pending.values())

    def statistics(self) -> Dict[str, int]:
        stats = super().statistics()
        stats.update(
            deletes_applied=self.deletes_applied,
            tombstones_pending=self.tombstones_pending,
            annihilations=self.annihilations,
            evictions=self.evictions,
            refills=self.refills,
        )
        return stats


class WindowedSampler(TurnstileReservoirJoin):
    """Sliding-window uniform sampling over joins.

    A :class:`TurnstileReservoirJoin` that also retracts rows by age: after
    every chunk boundary the reservoir is a uniform sample of the join of
    the rows still inside the window.  Two window notions:

    ``mode="count"``
        The window covers the last ``window`` stream *items* this sampler
        absorbed (its local clock).
    ``mode="timestamp"``
        The window covers rows whose *newest* admission timestamp exceeds
        ``watermark - window``, where the watermark is the monotone maximum
        of the :class:`~repro.relational.stream.StreamTuple` timestamps
        seen.  Out-of-order items keep their own event-time stamps — the
        watermark never rewinds — so a late item landing at or behind the
        horizon is retracted again at the very next chunk boundary, and a
        late duplicate of a live row never ages it (stamps only move
        forward).  Plain ``(relation, row)`` pairs are stamped at the
        current watermark (they never advance it).

    Re-inserting a live row refreshes its stamp (set semantics: the relation
    does not change, only the row's age).  Expiry runs at chunk boundaries —
    the admission log is a lazily invalidated min-heap ordered by stamp:
    entries are popped while the heap top is at or behind the horizon, and
    entries superseded by a newer admission of the same row are skipped.
    The resulting retractions go through the turnstile delete path, so the
    eviction/uniformity argument above covers window expiry too.  Explicit
    :class:`~repro.relational.stream.StreamDelete` items compose with the
    window (a turnstile stream can also be windowed).  Every entry point
    the base class offers — ``insert``, ``insert_batch``, ``delete``,
    ``delete_batch``, ``ingest_batch`` and ``process`` — reaches the window
    through :meth:`ingest_batch` or :meth:`delete_batch`.
    """

    def __init__(
        self,
        query: JoinQuery,
        k: int,
        window: int,
        rng: Optional[random.Random] = None,
        mode: str = "count",
        grouping: bool = False,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if mode not in ("count", "timestamp"):
            raise ValueError(f"unknown window mode {mode!r}")
        super().__init__(query, k, rng=rng, grouping=grouping)
        self.window = window
        self.mode = mode
        #: newest admission stamp per live-or-refreshed (relation, row).
        self._stamps: Dict[Tuple[str, tuple], int] = {}
        #: admission log: a min-heap of ``(stamp, seq, relation, row)``
        #: (``seq`` breaks stamp ties without comparing rows).  Entries whose
        #: stamp is no longer the row's newest are stale and skipped on pop.
        self._log: List[Tuple[int, int, str, tuple]] = []
        self._log_seq = 0
        self._clock = 0
        self._watermark = 0
        self.expirations = 0

    # ------------------------------------------------------------------ #
    # Streaming interface
    # ------------------------------------------------------------------ #
    def _stamp_of(self, item) -> int:
        if self.mode == "count":
            self._clock += 1
            return self._clock
        timestamp = item.timestamp if isinstance(item, StreamTuple) else self._watermark
        if timestamp > self._watermark:
            self._watermark = timestamp
        return timestamp

    def _admit(self, item, database) -> None:
        if isinstance(item, StreamTuple):
            key = (item.relation, item.row)
        else:
            relation, row = item
            key = (relation, tuple(row))
        stamp = self._stamp_of(item)
        # The clock and the watermark advance per item, but only a row the
        # chunk's fold left live is stamped: a row it netted away or
        # annihilated has nothing for the window to retract.
        if key[1] not in database[key[0]]:
            return
        # An out-of-order admission never ages a live row: its effective
        # stamp is the newest timestamp it was ever admitted at.  The log
        # entry is still pushed; the pop-side staleness check skips it.
        if stamp >= self._stamps.get(key, stamp):
            self._stamps[key] = stamp
        self._log_seq += 1
        heapq.heappush(self._log, (stamp, self._log_seq, key[0], key[1]))

    def _horizon(self) -> int:
        reference = self._clock if self.mode == "count" else self._watermark
        return reference - self.window

    def _expire(self) -> int:
        """Retract every row whose newest stamp fell behind the horizon.

        The log is a min-heap on stamp, so out-of-order admissions (a
        timestamp below the current watermark) are still drained as soon
        as they fall at or behind the horizon — including items that were
        already behind it on arrival.
        """
        horizon = self._horizon()
        expired: List[Tuple[str, tuple]] = []
        log = self._log
        while log and log[0][0] <= horizon:
            stamp, _seq, relation, row = heapq.heappop(log)
            key = (relation, row)
            if self._stamps.get(key) != stamp:
                continue  # refreshed by a newer admission; entry is stale
            del self._stamps[key]
            # Annihilated or explicitly deleted rows are no longer live;
            # retracting them again would plant a spurious tombstone.
            if row in self.index.database[relation]:
                expired.append(key)
        if expired:
            # The turnstile delete path itself: this class's override would
            # expire again.
            TurnstileReservoirJoin.delete_batch(self, expired)
            self.expirations += len(expired)
        return len(expired)

    def _forget(self, item) -> None:
        """Drop the stamp of an explicitly deleted row: a later re-insert is
        a new incarnation and must not inherit the deleted one's age."""
        if isinstance(item, StreamDelete):
            self._stamps.pop((item.relation, item.row), None)
        else:
            relation, row = item
            self._stamps.pop((relation, tuple(row)), None)

    def insert_batch(self, items: Iterable) -> int:
        """Absorb an insert-only chunk through :meth:`ingest_batch`, so its
        rows are stamped and expire; a
        :class:`~repro.relational.stream.StreamDelete` raises ``TypeError``
        before any state changes."""
        items = list(items)
        if any(isinstance(item, StreamDelete) for item in items):
            raise TypeError(
                "insert_batch received a StreamDelete; use ingest_batch for "
                "mixed turnstile chunks"
            )
        return self.ingest_batch(items)

    def delete_batch(self, items: Iterable) -> int:
        """Explicit retractions, composed with the window."""
        items = list(items)
        removed = super().delete_batch(items)
        for item in items:
            self._forget(item)
        self._expire()
        return removed

    def ingest_batch(self, items: Sequence) -> int:
        """Absorb one mixed chunk, then expire rows that left the window.

        The turnstile fold validates the chunk before the window stamps it,
        so a rejected chunk leaves the window untouched too.  Every insert
        item advances the window's clock; only the rows live after the
        chunk are stamped.  A delete drops the row's stamp, so an insert
        after it in the chunk stamps the row afresh.
        """
        items = list(items)
        absorbed = super().ingest_batch(items)
        database = self.index.database
        for item in items:
            if isinstance(item, StreamDelete):
                self._forget(item)
            else:
                self._admit(item, database)
        self._expire()
        return absorbed

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict[str, object]:
        """Complete resumable state: the turnstile snapshot (``inner``) plus
        the window clock.

        Restoring and continuing is bit-identical to never having paused —
        the admission log, stamps, clock and watermark all ride along.
        """
        return {
            "kind": "windowed",
            "window": self.window,
            "mode": self.mode,
            "clock": self._clock,
            "watermark": self._watermark,
            "stamps": [
                [relation, list(row), stamp]
                for (relation, row), stamp in sorted(self._stamps.items())
            ],
            # The heap array is serialized verbatim (it is a valid heap in
            # this order), so a restore continues bit-identically.
            "log": [
                [stamp, seq, relation, list(row)]
                for stamp, seq, relation, row in self._log
            ],
            "log_seq": self._log_seq,
            "expirations": self.expirations,
            "inner": super().snapshot_state(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        if state.get("kind") != "windowed":
            raise ValueError("not a WindowedSampler snapshot")
        if state["window"] != self.window or state["mode"] != self.mode:
            raise ValueError(
                "snapshot window configuration "
                f"({state['window']}, {state['mode']!r}) does not match this "
                f"sampler ({self.window}, {self.mode!r})"
            )
        super().restore_state(state["inner"])
        self._clock = state["clock"]
        self._watermark = state["watermark"]
        self._stamps = {
            (relation, tuple(row)): stamp
            for relation, row, stamp in state["stamps"]
        }
        self._log = [
            (stamp, seq, relation, tuple(row))
            for stamp, seq, relation, row in state["log"]
        ]
        self._log_seq = state["log_seq"]
        self.expirations = state["expirations"]

    @classmethod
    def from_snapshot(cls, state: Dict[str, object]) -> "WindowedSampler":
        """Rebuild a windowed sampler from a :meth:`snapshot_state` snapshot."""
        inner = state["inner"]
        sampler = cls(
            inner["query"],
            inner["k"],
            state["window"],
            mode=state["mode"],
            grouping=inner["config"]["grouping"],
        )
        sampler.restore_state(state)
        return sampler

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """The ``O(N)`` :meth:`TurnstileReservoirJoin.check_invariants`, and
        every stamped row lies inside the window."""
        super().check_invariants()
        horizon = self._horizon()
        for (relation, row), stamp in self._stamps.items():
            if stamp <= horizon:
                raise RuntimeError(f"{relation}{row} is stamped {stamp}, behind the horizon {horizon}")

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def rows_in_window(self) -> int:
        """Live rows currently inside the window.

        Counted against the stored database, not the raw stamp table — a
        snapshot from before explicit deletes dropped their rows' stamps
        may carry a stamp of a deleted row until the window slides past it.
        """
        database = self.index.database
        return sum(
            1
            for relation, row in self._stamps
            if row in database[relation]
        )

    def statistics(self) -> Dict[str, int]:
        stats = super().statistics()
        stats.update(
            window=self.window,
            rows_in_window=self.rows_in_window,
            expirations=self.expirations,
        )
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WindowedSampler({self.original_query.name!r}, k={self.k}, "
            f"window={self.window}, mode={self.mode!r}, "
            f"|sample|={self.sample_size})"
        )
