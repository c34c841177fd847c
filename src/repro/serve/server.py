"""The :class:`SampleServer`: snapshot-isolated reads over a live ingestor.

The paper's whole point is that reservoir maintenance makes ``sample(k)``
answerable *at any moment during the stream*.  This module is that moment's
front door: one writer drives any live ingestor (batch / sharded /
async) chunk by chunk, and many concurrent readers draw
samples that are never torn and always exactly uniform.

Snapshot epochs
---------------
Uniformity holds at chunk boundaries — and only there.  The server counts
boundaries as *epochs* via the ingestors' ``add_boundary_hook`` seam
(epoch ``E`` = the state after chunk ``E``; epoch 0 = the empty prefix).
Reads never touch the live state.  Instead the first read of an epoch
captures an :class:`EpochSnapshot`: an immutable record of only what a read
needs, never the index or the relations.

* A batch-style target (a :class:`~repro.ingest.batch.BatchIngestor`, a
  bare sampler, or the drained target of an :class:`~repro.ingest.pipeline
  .AsyncIngestor`) records its reservoir.
* A :class:`~repro.ingest.shard.ShardedIngestor` records each shard's
  reservoir, exact local count and capacity, plus its default merge size.
* Every subscribed predicate view records its reservoir.

Result dicts are copied into the record, so later ingestion cannot reach
it.  A cut therefore costs O(k) per reservoir, plus the exact shard counts
of a sharded target, and holds O(k) memory.  The record is captured under
the same lock the writer holds while applying a chunk, so it always equals
the state at *exactly* one chunk boundary — no half-applied chunk is
observable.  Every other read of that epoch shares the cached record
lock-free, and the results it returns are shared between those readers:
treat them as read-only.

Why the served sample is exactly uniform
----------------------------------------
The record's reservoir *is* the target's reservoir at the boundary of epoch
``E``, copied value for value.  By the per-sampler chunk-boundary guarantee
it is a uniform sample without replacement of the join results of the
first ``E`` chunks, and a uniform subset of it (``sample(k)`` below the
reservoir size) is uniform too.  For a sharded target the record's shard
states are the exact inputs of :func:`~repro.ingest.shard
.merge_shard_samples`, the same function the live
:meth:`~repro.ingest.shard.ShardedIngestor.merged_sample` calls, so a read
realises the exact hypergeometric merge over the boundary reservoirs.
Readers therefore get exact uniformity over the prefix at their snapshot
epoch — never an approximation, never a mixture of two prefixes.

Predicate views
---------------
``subscribe(name, predicate, k)`` attaches a per-subscriber
:class:`~repro.core.predicate_backend.PredicateStreamSampler`.  The writer
feeds every view at each chunk it pushes (stream items arrive at the view
as ``(relation, row)`` pairs wrapped into the view's arity-1 relation), so
a view's reservoir is a uniform sample of the *predicate-matching* stream
items pushed since subscription — and it is recorded in every epoch cut,
giving views the same isolation guarantee.

Single-writer discipline: drive ingestion through ``server.ingest_batch`` /
``server.ingest`` (or the asyncio front end).  Reads are safe from any
number of threads or tasks.  For an :class:`~repro.ingest.pipeline
.AsyncIngestor` the only chunk boundaries are drain points, so epochs
advance at drains and a freshest-data read (``max_staleness=0``) forces one.
"""

from __future__ import annotations

import random
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.backend import chunk_apply, derive_seed
# Bound but never called: bench/run.py's trace probes look these names up here.
from ..core.backend import restore_backend, snapshot_backend  # noqa: F401
from ..core.predicate_backend import PredicateStreamSampler
from ..ingest.engine import DEFAULT_CHUNK_SIZE
from ..ingest.pipeline import AsyncIngestor
from ..ingest.shard import ShardState, merge_shard_samples
from ..relational.stream import StreamTuple, as_relation_rows, chunk_stream


def _copied(results: Iterable[dict]) -> Tuple[dict, ...]:
    """The results as a tuple of fresh dicts, out of the writer's reach."""
    return tuple(dict(result) for result in results)


class EpochSnapshot:
    """An immutable record of the served state at one chunk-boundary epoch.

    Holds only what reads need: ``reservoir`` (a batch-style target) or
    ``shard_states`` plus the default merge size ``k`` (a sharded target),
    and each subscribed view's reservoir.  All read methods are safe to
    call from any number of threads concurrently: the only mutable state is
    a private seed RNG, guarded by its own lock, from which each read that
    needs randomness derives an independent ``random.Random``.
    """

    def __init__(
        self,
        epoch: int,
        tuples_ingested: Optional[int],
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
        self._seed_rng = random.Random(seed)
        self._rng_lock = threading.Lock()

    def _reader_rng(self) -> random.Random:
        with self._rng_lock:
            return random.Random(derive_seed(self._seed_rng))

    def sample(
        self, k: Optional[int] = None, rng: Optional[random.Random] = None
    ) -> List[dict]:
        """A uniform sample of the join results of this epoch's prefix.

        Sharded records draw a fresh merged sample (hypergeometric
        allocation over the recorded shard reservoirs, ``k`` defaulting to
        the ingestor's).  Batch-style records return the reservoir itself
        when ``k`` is ``None`` or at least the reservoir size
        (bit-identical to a standalone sampler stopped at this prefix), and
        a uniform ``k``-subset of it otherwise — a uniform subset of a
        uniform sample is itself uniform.  Pass ``rng`` for a deterministic
        draw; by default each call derives an independent RNG from the
        snapshot's capture seed.  The returned dicts are shared with other
        readers of this cut: treat them as read-only.
        """
        if k is not None and k <= 0:
            raise ValueError("sample size must be positive")
        if self.shard_states is not None:
            return merge_shard_samples(
                self.shard_states,
                self.k if k is None else k,
                rng if rng is not None else self._reader_rng(),
            )
        if k is None or k >= len(self.reservoir):
            return list(self.reservoir)
        return (rng if rng is not None else self._reader_rng()).sample(
            self.reservoir, k
        )

    def merged_sample(
        self, k: Optional[int] = None, rng: Optional[random.Random] = None
    ) -> List[dict]:
        """Alias of :meth:`sample` under the sharded merge's name."""
        return self.sample(k, rng=rng)

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
        The live ingestor (or bare sampler) to serve.  Anything exposing
        ``add_boundary_hook`` gets exact epoch tracking; a bare sampler
        falls back to counting the chunks pushed through the server.
    rng:
        Master randomness for snapshot-capture seeds and view samplers;
        seed it for reproducible served draws.

    Writer API: :meth:`ingest_batch` / :meth:`ingest` (one thread/task).
    Reader API: :meth:`snapshot`, :meth:`sample`, :meth:`merged_sample`,
    :meth:`view_sample` (any number of threads/tasks).
    """

    def __init__(self, ingestor, rng: Optional[random.Random] = None) -> None:
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
        add_hook = getattr(ingestor, "add_boundary_hook", None)
        self._hooked = add_hook is not None
        if self._hooked:
            add_hook(self._on_boundary)
        if isinstance(ingestor, AsyncIngestor):
            # Chunks are merely *submitted*; the epoch advances at drains.
            self._push: Callable[[Sequence], object] = ingestor.submit
        elif self._hooked:
            self._push = ingestor.ingest_batch
        else:
            # A bare sampler: the capability probe picks its best bulk path
            # and the server itself counts the boundaries it creates.
            self._push, _ = chunk_apply(ingestor)

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
        fed the same chunk (as ``(relation, row)`` pairs) after the
        ingestor absorbed it.  For an async ingestor the chunk is merely
        *submitted*; the epoch advances at the next drain point.
        """
        with self._lock:
            items = list(items)
            result = self._push(items)
            pushed = result if isinstance(result, int) else len(items)
            if pushed:
                if self._views:
                    pairs = as_relation_rows(items)
                    for view in self._views.values():
                        view.insert_batch(
                            [(view.relation, (pair,)) for pair in pairs]
                        )
                if not self._hooked:
                    self._epoch += 1
            return pushed

    def ingest(self, stream: Iterable[StreamTuple]) -> "SampleServer":
        """Chunk ``stream`` with the ingestor's chunk size and push it all,
        draining an async ingestor at the end so the final epoch is
        published; returns ``self``."""
        chunk_size = (
            getattr(self.ingestor, "chunk_size", None) or DEFAULT_CHUNK_SIZE
        )
        for chunk in chunk_stream(stream, chunk_size):
            self.ingest_batch(chunk)
        return self.drain()

    def drain(self) -> "SampleServer":
        """Force a chunk boundary on ingestors that buffer (async); no-op
        otherwise.  Returns ``self``."""
        drain = getattr(self.ingestor, "drain", None)
        if drain is not None:
            with self._lock:
                drain()
        return self

    # ------------------------------------------------------------------ #
    # Subscriptions (predicate views)
    # ------------------------------------------------------------------ #
    def subscribe(
        self,
        name: str,
        predicate: Callable[[object], bool],
        k: int,
        relation: str = "V",
        attribute: str = "item",
    ) -> "SampleServer":
        """Attach a predicate view: a per-subscriber reservoir, uniform
        over the predicate-matching stream items pushed from now on.

        Each stream item reaches the predicate as its normalised
        ``(relation, row)`` pair.  Subscribe before ingestion starts for a
        whole-stream view.  Its reservoir is recorded in every epoch cut, so
        :meth:`view_sample` is snapshot-isolated exactly like
        :meth:`sample`.  ``relation``/``attribute`` name the view's own
        arity-1 schema (cosmetic; they shape the returned dicts).
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
                relation=relation,
                attribute=attribute,
            )
        return self

    # ------------------------------------------------------------------ #
    # Reader side
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        """Chunk boundaries published so far (0 = empty prefix)."""
        return self._epoch

    def _prefix_tuples(self) -> Optional[int]:
        for attr in ("tuples_ingested", "tuples_submitted", "tuples_processed"):
            value = getattr(self.ingestor, attr, None)
            if value is not None:
                return value
        return None

    def _capture(self) -> EpochSnapshot:
        target = self.ingestor
        if isinstance(target, AsyncIngestor):
            # The only boundaries an async pipeline has are drain points:
            # drain (publishing the epoch via the drain hook), then record
            # the quiescent target.
            target.drain()
            target = target.target
        reservoir = shard_states = k = None
        if hasattr(target, "shard_states"):
            shard_states = tuple(
                ShardState(_copied(state.sample), state.count, state.capacity)
                for state in target.shard_states()
            )
            k = target.k
        else:
            held = target.sampler.sample if hasattr(target, "sampler") else target.sample
            reservoir = _copied(held() if callable(held) else held)
        return EpochSnapshot(
            self._epoch,
            self._prefix_tuples(),
            derive_seed(self._rng),
            reservoir=reservoir,
            shard_states=shard_states,
            k=k,
            views={name: _copied(view.sample) for name, view in self._views.items()},
        )

    def _boundary_pending(self) -> bool:
        inner = self.ingestor
        return isinstance(inner, AsyncIngestor) and not inner.at_boundary

    def snapshot(self, max_staleness: int = 0) -> EpochSnapshot:
        """The epoch record readers sample from.

        Returns the cached cut when it is at most ``max_staleness`` epochs
        behind the current one (0 = must be current); otherwise captures a
        fresh cut at the current boundary.  Capture copies the reservoirs
        (O(k) each; a sharded target also reads its exact shard counts),
        paid once per epoch by the first reader needing it — every other
        read of that epoch is a cache hit on an immutable record.
        """
        if max_staleness < 0:
            raise ValueError("max_staleness must be non-negative")
        with self._lock:
            latest = self._latest
            fresh_enough = (
                latest is not None
                and self._epoch - latest.epoch <= max_staleness
                and not (max_staleness == 0 and self._boundary_pending())
            )
            if fresh_enough:
                self._snapshot_cache_hits += 1
                return latest
            snap = self._capture()
            self._latest = snap
            self._snapshots_taken += 1
            return snap

    def note_read(self, count: int = 1) -> None:
        """Fold reads served through an external front end into the
        server's ``reads_served`` counter (thread-safe)."""
        with self._read_lock:
            self._reads_served += count

    def sample(
        self,
        k: Optional[int] = None,
        rng: Optional[random.Random] = None,
        max_staleness: int = 0,
    ) -> List[dict]:
        """One uniform read: :meth:`snapshot` then the cut's sample."""
        result = self.snapshot(max_staleness).sample(k, rng=rng)
        self.note_read()
        return result

    def merged_sample(
        self,
        k: Optional[int] = None,
        rng: Optional[random.Random] = None,
        max_staleness: int = 0,
    ) -> List[dict]:
        """One uniform read under the sharded merge's name."""
        result = self.snapshot(max_staleness).merged_sample(k, rng=rng)
        self.note_read()
        return result

    def view_sample(self, name: str, max_staleness: int = 0) -> List[dict]:
        """One snapshot-isolated read of a subscribed predicate view."""
        result = self.snapshot(max_staleness).view_sample(name)
        self.note_read()
        return result

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def statistics(self) -> Dict[str, object]:
        """Serving counters plus the live ingestor's own statistics."""
        with self._read_lock:
            reads = self._reads_served
        with self._lock:
            stats: Dict[str, object] = {
                "epoch": self._epoch,
                "tuples_ingested": self._prefix_tuples(),
                "reads_served": reads,
                "snapshots_taken": self._snapshots_taken,
                "snapshot_cache_hits": self._snapshot_cache_hits,
                "subscribers": sorted(self._views),
                "exact_epoch_tracking": self._hooked,
            }
            if hasattr(self.ingestor, "statistics"):
                stats["writer"] = self.ingestor.statistics()
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SampleServer({type(self.ingestor).__name__}, "
            f"epoch={self._epoch}, subscribers={len(self._views)})"
        )


__all__ = ["EpochSnapshot", "SampleServer"]
