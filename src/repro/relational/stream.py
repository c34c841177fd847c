"""Tuple streams (Section 2.1).

In the streaming model every input is a triple ``u = (t, i, R_e)``: tuple
``t`` is inserted into relation ``R_e`` at time ``i``.  This module provides
the :class:`StreamTuple` record plus utilities to build, shuffle, interleave
and replay streams reproducibly.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class StreamTuple:
    """One stream element: insert ``row`` into ``relation``.

    ``timestamp`` is informational; streams are always processed in iteration
    order.
    """

    relation: str
    row: Tuple
    timestamp: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "row", tuple(self.row))


@dataclass(frozen=True)
class StreamDelete:
    """One turnstile stream element: delete ``row`` from ``relation``.

    The retraction twin of :class:`StreamTuple`.  Only turnstile-capable
    consumers (``repro.core.turnstile``) accept these; every insert-only
    normalisation path rejects them with ``TypeError`` so a retraction can
    never be silently mis-ingested as an insert.
    """

    relation: str
    row: Tuple
    timestamp: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "row", tuple(self.row))


def is_delete(item) -> bool:
    """Whether a stream item is a retraction (:class:`StreamDelete`)."""
    return isinstance(item, StreamDelete)


def _reject_delete(item) -> None:
    if isinstance(item, StreamDelete):
        raise TypeError(
            f"retraction of {item.row!r} from {item.relation!r} reached an "
            "insert-only path; route turnstile streams through a "
            "deletion-capable sampler (repro.TurnstileReservoirJoin / "
            "repro.WindowedSampler)"
        )


def as_relation_rows(items: Iterable) -> List[Tuple[str, Tuple]]:
    """Normalise a batch of stream items to ``(relation, row_tuple)`` pairs.

    Accepts :class:`StreamTuple` instances and plain ``(relation, row)``
    pairs interchangeably, which is what the ``insert_batch`` APIs take.
    :class:`StreamDelete` items are rejected with ``TypeError`` — this is an
    insert-only normalisation.
    """
    pairs: List[Tuple[str, Tuple]] = []
    for item in items:
        if isinstance(item, StreamTuple):
            pairs.append((item.relation, item.row))
        else:
            _reject_delete(item)
            relation, row = item
            pairs.append((relation, tuple(row)))
    return pairs


def validated_items(items: Iterable, query) -> List[Tuple[str, Tuple]]:
    """Normalise a batch and validate it against ``query`` before any mutation.

    The shared front half of every ``insert_batch`` implementation — the
    structural bulk paths and the per-tuple adapter
    :class:`repro.core.backend.PerTupleBatchMixin` all validate through
    this: returns the
    ``(relation, row)`` pairs of :func:`as_relation_rows`, raising
    ``KeyError`` for a pair naming a relation outside the query and
    ``ValueError`` for a row whose arity does not match its relation's schema.
    Both checks run over the *whole* batch before the caller touches any
    state, so a failed call leaves the sampler untouched — no partial
    mutation, whatever the position of the bad item in the batch.
    """
    pairs = as_relation_rows(items)
    validate_pairs(pairs, query)
    return pairs


def validate_pairs(pairs: Iterable[Tuple[str, Tuple]], query) -> None:
    """The checks of :func:`validated_items` over already-normalised pairs.

    ``KeyError`` for a relation outside ``query``, ``ValueError`` for a row
    whose arity does not match its relation's schema — the first offender
    in stream order raises.  Used directly by routers whose chunks may also
    carry retractions, which :func:`as_relation_rows` would reject.
    """
    arities = {schema.name: schema.arity for schema in query.relations}
    for relation, row in pairs:
        arity = arities.get(relation)
        if arity is None:
            raise KeyError(
                f"relation {relation!r} is not part of query {query.name!r}"
            )
        if len(row) != arity:
            raise ValueError(
                f"row arity {len(row)} does not match relation "
                f"{relation!r} arity {arity}"
            )


def chunk_stream(stream: Iterable, size: int) -> Iterator[List]:
    """Yield consecutive chunks of at most ``size`` items from ``stream``.

    The canonical chunker behind every ingestion mode — batched and
    sharded both cut streams with it.  Chunk boundaries are where the
    per-prefix uniformity guarantee holds, so anything that transports
    streams in chunks of this shape can feed any ingestor.
    """
    if size <= 0:
        raise ValueError("chunk size must be positive")
    chunk: List = []
    for item in stream:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


class ThrottledChunkSource:
    """A chunked stream source whose delivery blocks like a real transport.

    Iterating yields the chunks of ``stream`` (``chunk_size`` items each) and
    blocks for ``latency_seconds`` before handing over each chunk — the shape
    of a network fetch, a Kafka poll or a paginated scan, where the *next*
    chunk is not available the instant the previous one was consumed.

    Synchronous ingestion over such a source pays ``sum(latencies) + cpu``;
    iterating it through :func:`prefetched` overlaps the blocking wait with
    sampler CPU and pays roughly ``max(sum(latencies), cpu)``.
    ``wait_seconds`` and ``chunks_yielded`` record what the transport
    actually cost, and ``sleep`` is injectable so tests can run
    latency-free.
    """

    def __init__(
        self,
        stream: Iterable,
        chunk_size: int,
        latency_seconds: float = 0.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if latency_seconds < 0:
            raise ValueError("latency must be non-negative")
        self._stream = stream
        self.chunk_size = chunk_size
        self.latency_seconds = latency_seconds
        self._sleep = sleep
        self.chunks_yielded = 0
        self.wait_seconds = 0.0

    def __iter__(self) -> Iterator[List]:
        for chunk in chunk_stream(self._stream, self.chunk_size):
            if self.latency_seconds > 0.0:
                start = time.perf_counter()
                self._sleep(self.latency_seconds)
                self.wait_seconds += time.perf_counter() - start
            self.chunks_yielded += 1
            yield chunk


#: Chunks :func:`prefetched` reads ahead of its consumer.
PREFETCH_CHUNKS = 8

_DONE = object()  # queue sentinel: the source is exhausted or failed


def prefetched(chunks: Iterable) -> Iterator:
    """Yield ``chunks`` in order while one daemon thread reads ahead.

    The thread iterates ``chunks`` into a queue bounded at
    :data:`PREFETCH_CHUNKS`, so a source that blocks (a network fetch, a
    :class:`ThrottledChunkSource`) waits for the next chunk while the
    caller's thread ingests the current one.  Ingestion itself stays on the
    caller's thread, so every chunk is an ordinary chunk boundary::

        for chunk in prefetched(source):
            ingestor.ingest_batch(chunk)

    An exception raised by the source is re-raised here after the chunks
    that came before it.  When the consumer stops early (``break``, an
    exception or ``close()``), the thread stops after the source call in
    flight and is joined; it is never left blocked on a full queue.
    """
    buffer: "queue.Queue" = queue.Queue(maxsize=PREFETCH_CHUNKS)
    stop = threading.Event()
    failure: List[BaseException] = []

    def produce() -> None:
        try:
            for chunk in chunks:
                if stop.is_set():
                    return
                buffer.put(chunk)
        except BaseException as error:
            failure.append(error)
        if not stop.is_set():
            buffer.put(_DONE)

    producer = threading.Thread(target=produce, name="prefetch", daemon=True)
    producer.start()
    try:
        while True:
            chunk = buffer.get()
            if chunk is _DONE:
                if failure:
                    raise failure[0]
                return
            yield chunk
    finally:
        # Every put after ``stop`` is set passed its check before it, so at
        # most one lands after this drain: the producer cannot block again.
        stop.set()
        while True:
            try:
                buffer.get_nowait()
            except queue.Empty:
                break
        producer.join()


def stream_from_rows(relation: str, rows: Iterable[Sequence], start: int = 0) -> List[StreamTuple]:
    """Build a stream inserting ``rows`` into a single relation, in order."""
    return [
        StreamTuple(relation, tuple(row), start + offset)
        for offset, row in enumerate(rows)
    ]


def shuffled(stream: Sequence[StreamTuple], rng: random.Random) -> List[StreamTuple]:
    """A shuffled copy of ``stream`` with timestamps reassigned in order."""
    items = list(stream)
    rng.shuffle(items)
    return renumber(items)


def renumber(stream: Iterable[StreamTuple], start: int = 0) -> List[StreamTuple]:
    """Reassign consecutive timestamps starting at ``start``."""
    return [
        StreamTuple(item.relation, item.row, start + offset)
        for offset, item in enumerate(stream)
    ]


def interleave(streams: Sequence[Sequence[StreamTuple]], rng: random.Random) -> List[StreamTuple]:
    """Randomly interleave several streams, preserving each stream's order.

    This models several relations receiving their tuples concurrently, the
    setup used for the paper's graph queries where every logical relation
    receives its own independently shuffled copy of the edge set.
    """
    iterators = [list(s) for s in streams]
    positions = [0] * len(iterators)
    remaining = [len(s) for s in iterators]
    merged: List[StreamTuple] = []
    total = sum(remaining)
    while total > 0:
        # Pick a source with probability proportional to its remaining length,
        # which yields a uniformly random interleaving.
        pick = rng.randrange(total)
        for source, count in enumerate(remaining):
            if pick < count:
                merged.append(iterators[source][positions[source]])
                positions[source] += 1
                remaining[source] -= 1
                total -= 1
                break
            pick -= count
    return renumber(merged)


def concatenate(streams: Sequence[Sequence[StreamTuple]]) -> List[StreamTuple]:
    """Concatenate streams back to back and renumber timestamps."""
    merged: List[StreamTuple] = []
    for stream in streams:
        merged.extend(stream)
    return renumber(merged)


def prefix(stream: Sequence[StreamTuple], fraction: float) -> List[StreamTuple]:
    """The first ``fraction`` (0..1) of a stream."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    cutoff = int(round(len(stream) * fraction))
    return list(stream[:cutoff])


def turnstile_stream(
    inserts: Sequence[StreamTuple],
    rng: random.Random,
    delete_fraction: float = 0.25,
    tombstone_fraction: float = 0.0,
) -> List:
    """Derive a turnstile (insert + delete) stream from an insert stream.

    Walks ``inserts`` in order and, after each insert, emits a
    :class:`StreamDelete` of a uniformly random still-live earlier row with
    probability ``delete_fraction``.  With probability ``tombstone_fraction``
    the retraction instead targets a *future* insert — a delete arriving
    before its insert, which deletion-capable samplers must treat as a
    tombstone annihilating that later insert.  Timestamps are renumbered
    consecutively over the merged stream, so count- and timestamp-based
    windows agree on it.
    """
    if not 0.0 <= delete_fraction <= 1.0:
        raise ValueError("delete_fraction must be within [0, 1]")
    if not 0.0 <= tombstone_fraction <= 1.0:
        raise ValueError("tombstone_fraction must be within [0, 1]")
    inserts = list(inserts)
    merged: List = []
    live: List[Tuple[str, Tuple]] = []
    live_positions: Dict[Tuple[str, Tuple], int] = {}
    tombstoned: set = set()

    def _remove_live(position: int) -> Tuple[str, Tuple]:
        target = live[position]
        last = live.pop()
        if position < len(live):
            live[position] = last
            live_positions[last] = position
        del live_positions[target]
        return target

    for offset, item in enumerate(inserts):
        key = (item.relation, item.row)
        merged.append(item)
        if key in tombstoned:
            # This insert was retracted in advance; it never becomes live.
            tombstoned.discard(key)
        elif key not in live_positions:
            live_positions[key] = len(live)
            live.append(key)
        if live and rng.random() < delete_fraction:
            relation, row = _remove_live(rng.randrange(len(live)))
            merged.append(StreamDelete(relation, row))
        if tombstone_fraction and rng.random() < tombstone_fraction:
            # Retract a future insert: scan forward for one that is neither
            # live now nor already tombstoned.
            for future in inserts[offset + 1 :]:
                future_key = (future.relation, future.row)
                if future_key not in live_positions and future_key not in tombstoned:
                    tombstoned.add(future_key)
                    merged.append(StreamDelete(future.relation, future.row))
                    break
    return [
        type(item)(item.relation, item.row, timestamp)
        for timestamp, item in enumerate(merged)
    ]


def surviving_rows(stream: Iterable) -> Dict[str, set]:
    """Replay a turnstile stream to its surviving per-relation row sets.

    The reference semantics every deletion-capable sampler must agree with:
    a delete of a live row removes it; a delete of an absent row becomes a
    pending tombstone that annihilates the next insert of that row; an
    insert of an already-live row is a duplicate and is ignored.  (A live
    row can never also carry a pending tombstone: deletes of live rows apply
    immediately, so the two states are mutually exclusive.)
    """
    live: Dict[str, set] = {}
    pending: Dict[Tuple[str, Tuple], int] = {}
    for item in stream:
        if isinstance(item, StreamDelete):
            rows = live.get(item.relation)
            if rows is not None and item.row in rows:
                rows.discard(item.row)
            else:
                key = (item.relation, item.row)
                pending[key] = pending.get(key, 0) + 1
            continue
        if isinstance(item, StreamTuple):
            relation, row = item.relation, item.row
        else:
            relation, row = item
            row = tuple(row)
        key = (relation, row)
        outstanding = pending.get(key, 0)
        if outstanding:
            if outstanding == 1:
                del pending[key]
            else:
                pending[key] = outstanding - 1
            continue
        live.setdefault(relation, set()).add(row)
    return live


def checkpoints(stream: Sequence[StreamTuple], parts: int = 10) -> List[int]:
    """Indices splitting a stream into ``parts`` equal progress checkpoints.

    Used by the experiments that report running time/memory after every 10 %
    of the input (Figures 7, 11 and 12).
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    n = len(stream)
    return [max(1, (n * i) // parts) for i in range(1, parts + 1)] if n else []
