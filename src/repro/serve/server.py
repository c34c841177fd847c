"""The :class:`SampleServer`: snapshot-isolated reads over a live ingestor.

The paper's whole point is that reservoir maintenance makes ``sample(k)``
answerable *at any moment during the stream*.  This module is that moment's
front door: one writer drives a live ingestor (a
:class:`~repro.ingest.batch.BatchIngestor` or a
:class:`~repro.ingest.shard.ShardedIngestor`) chunk by chunk, and many
concurrent readers draw
samples that are never torn and always exactly uniform.

Snapshot epochs
---------------
Uniformity holds at chunk boundaries — and only there.  The server counts
boundaries as *epochs* via the ingestors' ``add_boundary_hook`` seam
(epoch ``E`` = the state after chunk ``E``; epoch 0 = the empty prefix).
Reads never touch the live state.  Instead the first read of an epoch
captures an :class:`EpochSnapshot`: an immutable record of only what a read
needs, never the index or the relations.

* A :class:`~repro.ingest.batch.BatchIngestor` records its sampler's
  reservoir.
* A :class:`~repro.ingest.shard.ShardedIngestor` records each shard's
  reservoir, running ``w`` and capacity, plus its default merge size.
* Every subscribed predicate view records its reservoir.

Result dicts are copied into the record, so later ingestion cannot reach
it.  A cut therefore costs O(k) per reservoir, never a pass over the
database, and holds O(k) memory.  The record is captured under
the same lock the writer holds while applying a chunk, so it always equals
the state at *exactly* one chunk boundary — no half-applied chunk is
observable.  Every other read within its staleness budget gets the cached
record without taking the writer's lock, so a reader is never held up by a
chunk being applied; the results it returns are shared between those
readers: treat them as read-only.

Why the served sample is exactly uniform
----------------------------------------
The record's reservoir *is* the target's reservoir at the boundary of epoch
``E``, copied value for value.  By the per-sampler chunk-boundary guarantee
it is a uniform sample without replacement of the join results of the
first ``E`` chunks, and a uniform subset of it (``sample(k)`` below the
reservoir size) is uniform too.  The subset is a partial Fisher–Yates
shuffle drawn from the cut's own RNG: reads of one cut take their draws
from it in turn, so each read's subset is uniform given every earlier
read's, and two co-seeded servers serve the same sequence of subsets.
For a sharded target the record's shard states are the exact inputs of
:func:`~repro.ingest.shard.merge_shard_samples`, the same function the live
:meth:`~repro.ingest.shard.ShardedIngestor.merged_sample` calls, so a read
realises the exact bottom-``k`` key merge over the boundary reservoirs,
drawing from the same RNG as a subset read.
Readers therefore get exact uniformity over the prefix at their snapshot
epoch — never an approximation, never a mixture of two prefixes.

Predicate views
---------------
``subscribe(name, predicate, k)`` attaches a per-subscriber
:class:`~repro.core.predicate_backend.PredicateStreamSampler`.  The writer
feeds every view the inserts of each chunk it pushes (stream items arrive at
the view as ``(relation, row)`` pairs wrapped into the view's arity-1
relation; a retraction is not a stream item a view samples), so a view's
reservoir is a uniform sample of the *predicate-matching* inserts pushed
since subscription — and it is recorded in every epoch cut, giving views
the same isolation guarantee.

Single-writer discipline: drive ingestion through ``server.ingest_batch`` /
``server.ingest`` from one thread.  Reads are safe from any number of
threads.  A blocking source overlaps with the writer through
:func:`~repro.relational.stream.prefetched`, which reads ahead on its own
thread and leaves every chunk an ordinary epoch.
"""

from __future__ import annotations

import random
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.backend import derive_seed
# Bound but never called: bench/run.py's trace probes look these names up here.
from ..core.backend import restore_backend, snapshot_backend  # noqa: F401
from ..core.predicate_backend import PredicateStreamSampler
from ..ingest.shard import ShardState, merge_shard_samples
from ..relational.stream import (
    StreamTuple,
    as_relation_rows,
    chunk_stream,
    is_delete,
)


def _copied(results: Iterable[dict]) -> Tuple[dict, ...]:
    """The results as a tuple of fresh dicts, out of the writer's reach."""
    return tuple(dict(result) for result in results)


def _subset(population: Sequence, k: int, rng: random.Random) -> List:
    """A uniform ``k``-subset of ``population`` in random order, for
    ``0 <= k <= len(population)``.

    A partial Fisher–Yates shuffle over a copy: CPython's
    ``random.Random.sample`` in its list-pool branch, with ``_randbelow``'s
    ``getrandbits`` rejection loop written out, so it consumes the same
    draws and returns the same list wherever ``Random.sample`` takes that
    branch.
    """
    getrandbits = rng.getrandbits
    pool = list(population)
    n = len(pool)
    result = [None] * k
    for i in range(k):
        left = n - i
        bits = left.bit_length()
        position = getrandbits(bits)
        while position >= left:
            position = getrandbits(bits)
        result[i] = pool[position]
        pool[position] = pool[left - 1]
    return result


class EpochSnapshot:
    """An immutable record of the served state at one chunk-boundary epoch.

    Holds only what reads need: ``reservoir`` (a batch target) or
    ``shard_states`` plus the default merge size ``k`` (a sharded target),
    and each subscribed view's reservoir.  All read methods are safe to
    call from any number of threads concurrently: the only mutable state is
    the cut's own RNG, seeded at capture and guarded by its own lock, from
    which reads without an explicit ``rng`` draw in turn.
    """

    def __init__(
        self,
        epoch: int,
        tuples_ingested: int,
        seed: int,
        reservoir: Optional[Tuple[dict, ...]],
        shard_states: Optional[Tuple[ShardState, ...]],
        k: Optional[int],
        views: Dict[str, Tuple[dict, ...]],
    ) -> None:
        self.epoch = epoch
        self.tuples_ingested = tuples_ingested
        self.reservoir = reservoir
        self.shard_states = shard_states
        self.k = k
        self._views = views
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()

    def sample(
        self, k: Optional[int] = None, rng: Optional[random.Random] = None
    ) -> List[dict]:
        """A uniform sample of the join results of this epoch's prefix.

        Sharded records draw a fresh merged sample (the ``k`` smallest
        regenerated keys over the recorded shard reservoirs, ``k``
        defaulting to the ingestor's).  Batch records return the reservoir itself
        when ``k`` is ``None`` or at least the reservoir size
        (bit-identical to a standalone sampler stopped at this prefix), and
        a uniform ``k``-subset of it otherwise — a uniform subset of a
        uniform sample is itself uniform.  Pass ``rng`` for a deterministic
        draw; by default reads draw in turn from the cut's own RNG, seeded
        at capture, so each read's subset is uniform given all earlier
        reads of the cut.  The returned dicts are shared with other
        readers of this cut: treat them as read-only.
        """
        if k is not None and k <= 0:
            raise ValueError("sample size must be positive")
        if self.shard_states is not None:
            draw, population = merge_shard_samples, self.shard_states
            k = self.k if k is None else k
        elif k is None or k >= len(self.reservoir):
            return list(self.reservoir)
        else:
            draw, population = _subset, self.reservoir
        if rng is not None:
            return draw(population, k, rng)
        with self._rng_lock:
            return draw(population, k, self._rng)

    def view_sample(self, name: str) -> List[dict]:
        """The recorded reservoir of one subscribed predicate view."""
        view = self._views.get(name)
        if view is None:
            raise KeyError(
                f"no subscriber {name!r} in this snapshot "
                f"(known: {sorted(self._views)})"
            )
        return list(view)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "sharded" if self.shard_states is not None else "reservoir"
        return (
            f"EpochSnapshot(epoch={self.epoch}, {kind}, "
            f"views={sorted(self._views)})"
        )


class SampleServer:
    """Multiplex many concurrent readers against one live ingestion writer.

    Parameters
    ----------
    ingestor:
        The live ingestor to serve: anything exposing ``add_boundary_hook``
        (a :class:`~repro.ingest.batch.BatchIngestor` or a
        :class:`~repro.ingest.shard.ShardedIngestor`), whose boundary hook
        counts the epochs.  Anything else raises ``TypeError``; serve a
        bare sampler by wrapping it in a ``BatchIngestor``.
    rng:
        Master randomness for snapshot-capture seeds and view samplers;
        seed it for reproducible served draws.

    Writer API: :meth:`ingest_batch` / :meth:`ingest` (one thread).
    Reader API: :meth:`snapshot`, :meth:`sample`, :meth:`view_sample` (any
    number of threads).
    """

    def __init__(self, ingestor, rng: Optional[random.Random] = None) -> None:
        add_hook = getattr(ingestor, "add_boundary_hook", None)
        if not callable(add_hook):
            raise TypeError(
                f"SampleServer serves an ingestor with add_boundary_hook, not a "
                f"{type(ingestor).__name__}; wrap a sampler in BatchIngestor"
            )
        self.ingestor = ingestor
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.RLock()
        self._read_lock = threading.Lock()
        self._epoch = 0
        self._views: Dict[str, PredicateStreamSampler] = {}
        self._latest: Optional[EpochSnapshot] = None
        self._snapshots_taken = 0
        self._snapshot_cache_hits = 0
        self._reads_served = 0
        add_hook(self._on_boundary)

    # ------------------------------------------------------------------ #
    # Writer side
    # ------------------------------------------------------------------ #
    def _on_boundary(self, items, parts) -> None:
        self._epoch += 1

    def ingest_batch(self, items: Sequence) -> int:
        """Push one chunk; the new epoch is published at its boundary.

        Held under the server's write lock, which is also what snapshot
        capture takes — so a concurrent reader either cuts before this
        chunk or after it, never inside it.  Subscribed predicate views are
        fed the chunk's inserts (as ``(relation, row)`` pairs) after the
        ingestor absorbed it; its retractions are not view items.
        """
        with self._lock:
            items = list(items)
            pushed = self.ingestor.ingest_batch(items)
            if pushed and self._views:
                pairs = as_relation_rows(item for item in items if not is_delete(item))
                for view in self._views.values():
                    view.insert_batch([(view.RELATION, (pair,)) for pair in pairs])
            return pushed

    def ingest(self, stream: Iterable[StreamTuple]) -> "SampleServer":
        """Chunk ``stream`` with the ingestor's chunk size and push it all;
        returns ``self``."""
        for chunk in chunk_stream(stream, self.ingestor.chunk_size):
            self.ingest_batch(chunk)
        return self

    # ------------------------------------------------------------------ #
    # Subscriptions (predicate views)
    # ------------------------------------------------------------------ #
    def subscribe(
        self,
        name: str,
        predicate: Callable[[object], bool],
        k: int,
    ) -> "SampleServer":
        """Attach a predicate view: a per-subscriber reservoir, uniform
        over the predicate-matching inserts pushed from now on.

        Each insert reaches the predicate as its normalised
        ``(relation, row)`` pair.  Subscribe before ingestion starts for a
        whole-stream view.  Its reservoir is recorded in every epoch cut, so
        :meth:`view_sample` is snapshot-isolated exactly like
        :meth:`sample`; its results are ``{"item": pair}`` dicts.
        """
        if not callable(predicate):
            raise TypeError("predicate must be callable")
        with self._lock:
            if name in self._views:
                raise ValueError(f"subscriber {name!r} already exists")
            self._views[name] = PredicateStreamSampler(
                k,
                predicate,
                rng=random.Random(derive_seed(self._rng)),
            )
        return self

    # ------------------------------------------------------------------ #
    # Reader side
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        """Chunk boundaries published so far (0 = empty prefix)."""
        return self._epoch

    def _capture(self) -> EpochSnapshot:
        target = self.ingestor
        reservoir = shard_states = k = None
        if hasattr(target, "shard_states"):
            shard_states = tuple(
                ShardState(_copied(state.sample), state.w, state.capacity)
                for state in target.shard_states()
            )
            k = target.k
        else:
            reservoir = _copied(target.sampler.sample)
        return EpochSnapshot(
            self._epoch,
            target.tuples_ingested,
            derive_seed(self._rng),
            reservoir=reservoir,
            shard_states=shard_states,
            k=k,
            views={name: _copied(view.sample) for name, view in self._views.items()},
        )

    def snapshot(self, max_staleness: int = 0) -> EpochSnapshot:
        """The epoch record readers sample from.

        Returns the cached cut when it is at most ``max_staleness`` epochs
        behind the current one (0 = must be current); otherwise captures a
        fresh cut at the current boundary.  Capture copies the reservoirs
        (O(k) each, sharded or not) under the writer's lock, paid once per
        epoch by the first reader needing it.  A cache hit takes no writer
        lock, so it never waits for a chunk being applied; a miss takes the
        lock and checks the cache again before it cuts.
        """
        if max_staleness < 0:
            raise ValueError("max_staleness must be non-negative")
        latest = self._latest
        if latest is None or self._epoch - latest.epoch > max_staleness:
            with self._lock:
                latest = self._latest
                if latest is None or self._epoch - latest.epoch > max_staleness:
                    latest = self._latest = self._capture()
                    self._snapshots_taken += 1
                    return latest
        with self._read_lock:
            self._snapshot_cache_hits += 1
        return latest

    def sample(
        self,
        k: Optional[int] = None,
        rng: Optional[random.Random] = None,
        max_staleness: int = 0,
    ) -> List[dict]:
        """One uniform read: :meth:`snapshot` then the cut's sample."""
        result = self.snapshot(max_staleness).sample(k, rng=rng)
        with self._read_lock:
            self._reads_served += 1
        return result

    def view_sample(self, name: str, max_staleness: int = 0) -> List[dict]:
        """One snapshot-isolated read of a subscribed predicate view."""
        result = self.snapshot(max_staleness).view_sample(name)
        with self._read_lock:
            self._reads_served += 1
        return result

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def statistics(self) -> Dict[str, object]:
        """Serving counters plus the live ingestor's own statistics."""
        with self._read_lock:
            reads, hits = self._reads_served, self._snapshot_cache_hits
        with self._lock:
            stats: Dict[str, object] = {
                "epoch": self._epoch,
                "tuples_ingested": self.ingestor.tuples_ingested,
                "reads_served": reads,
                "snapshots_taken": self._snapshots_taken,
                "snapshot_cache_hits": hits,
                "subscribers": sorted(self._views),
                "writer": self.ingestor.statistics(),
            }
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SampleServer({type(self.ingestor).__name__}, "
            f"epoch={self._epoch}, subscribers={len(self._views)})"
        )


__all__ = ["EpochSnapshot", "SampleServer"]
