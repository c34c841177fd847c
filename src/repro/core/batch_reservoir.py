"""Reservoir sampling with a predicate over batches (Section 3, Algorithms 1, 4, 5).

Given a stream containing *real* and *dummy* items, a predicate ``θ`` that
distinguishes them, and a target size ``k``, the sampler maintains a uniform
sample without replacement of size ``k`` over the real items only.
Conceptually every item draws ``u ~ Uni(0,1)`` and is *stopped at* when
``u < w``; the geometric skip simulates the gaps between stops, and the
reservoir and ``w`` are only updated when the stopped-at item is real.
Assuming ``skip`` is constant time, the expected number of stops is

    O( Σ_i  min(1, k / (r_i + 1)) )

where ``r_i`` is the number of real items among the first ``i - 1`` items,
which the paper proves instance-optimal (Theorem 3.3).  When every item is
real this collapses to Li's ``O(k log(N/k))``; when no item is real it
degrades gracefully to ``O(N)``.

The join sampler feeds the reservoir one *batch* per arriving tuple: the
batch is the (never materialised) delta array ``ΔJ ⊇ ΔQ(R, t)``.  The batched
sampler behaves exactly as Algorithm 1 over the concatenation of all
batches; the only extra machinery is carrying a pending skip count across
batch boundaries (a skip may run off the end of the current batch).  So this
one loop is every skip-based reservoir of the paper: Algorithm 1 is a run
over one batch, and Li's Algorithm L is Algorithm 1 with an always-true
predicate.  Cutting a stream into batches anywhere changes no draw.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Generic, List, Optional, TypeVar

from .reservoir import _uniform, geometric_skip
from .skippable import FunctionBatch, is_real

T = TypeVar("T")


class BatchedPredicateReservoir(Generic[T]):
    """Algorithms 1, 4 and 5: reservoir sampling with a predicate over batches.

    The sampler is fed item-disjoint batches one at a time through
    :meth:`process_batch` and maintains ``k`` uniform samples without
    replacement over the real items of all batches processed so far.  A
    plain item stream is one :class:`~repro.core.skippable.ListBatch`, or
    any cut of it into consecutive ones.

    Statistics useful for the experiments:

    ``items_total``
        Total (conceptual) length of all batches seen, i.e. the length of the
        simulated join-result stream.
    ``items_examined``
        How many batch positions were actually retrieved (the stops that
        Theorem 3.2 bounds) — the work that the skip mechanism saves is
        ``items_total - items_examined``.
    ``real_stops``
        How many examined items were real.
    """

    def __init__(
        self,
        k: int,
        predicate: Callable[[T], bool] = is_real,
        rng: Optional[random.Random] = None,
    ) -> None:
        if k <= 0:
            raise ValueError("sample size k must be positive")
        self.k = k
        self.predicate = predicate
        self._rng = rng if rng is not None else random.Random()
        self._sample: List[T] = []
        # w = +inf is the "not yet initialised" sentinel of Algorithm 4 line 1:
        # it is initialised exactly once, the first time the reservoir fills.
        self._w = math.inf
        self._pending_skip = 0
        self.items_total = 0
        self.items_examined = 0
        self.real_stops = 0
        self.batches_processed = 0

    # ------------------------------------------------------------------ #
    # Public interface
    # ------------------------------------------------------------------ #
    @property
    def sample(self) -> List[T]:
        """The current reservoir (a copy)."""
        return list(self._sample)

    @property
    def w(self) -> float:
        """The running ``w``: the ``k``-th smallest key of the real items
        seen, ``inf`` until the reservoir first fills."""
        return self._w

    @property
    def is_full(self) -> bool:
        """Whether the reservoir holds ``k`` items."""
        return len(self._sample) >= self.k

    def __len__(self) -> int:
        return len(self._sample)

    def process_deferred_many(
        self,
        sizes: "List[int]",
        make_batch: Callable[..., FunctionBatch[T]],
        args: "List",
    ) -> None:
        """Fold many batches at once, building each only when needed.

        Semantically identical to ``process_batch(make_batch(args[i],
        sizes[i]))`` for every ``i`` in order, but when the reservoir is
        already full and the pending skip count covers a whole batch, the
        sampler would not stop at any of its positions, so only the counters
        are updated and the batch is never built.  Once the simulated result
        stream is long, almost every delta batch is skipped wholesale; the
        skip bookkeeping stays in locals between batches, so that case is
        plain integer arithmetic.  The builder receives the size, so it
        need not recompute it.
        """
        if any(size < 0 for size in sizes):
            # Validate before touching any bookkeeping: a bad size mid-loop
            # must not leave the locally accumulated skip state unflushed.
            raise ValueError("batch size must be non-negative")
        k = self.k
        sample = self._sample
        pending = self._pending_skip
        total = self.items_total
        skipped = 0
        w_ready = not math.isinf(self._w)
        for size, arg in zip(sizes, args):
            if size == 0:
                skipped += 1
                continue
            if w_ready and pending >= size and len(sample) >= k:
                skipped += 1
                total += size
                pending -= size
                continue
            # Slow path: flush the locals, materialise and fold this batch,
            # then re-load the (possibly changed) skip state.
            self._pending_skip = pending
            self.items_total = total
            self.batches_processed += skipped
            skipped = 0
            self.process_batch(make_batch(arg, size))
            pending = self._pending_skip
            total = self.items_total
            w_ready = not math.isinf(self._w)
        self._pending_skip = pending
        self.items_total = total
        self.batches_processed += skipped

    def rebase_population(self, sample: "List[T]", w: float) -> None:
        """Install a reservoir re-anchored after an out-of-band population change.

        Deletions shrink the population the reservoir samples, which the
        insert-only Algorithm 4/5 state machine has no transition for.  The
        turnstile sampler evicts the dead items, refills from the survivors
        by continuing the order statistics of their lazily generated keys
        (see :mod:`repro.core.turnstile`), and hands over the new reservoir
        with its ``k``-th smallest key ``w``.  This installs both and redraws
        the pending skip from ``w``; the geometric skip is memoryless, so the
        sampler then goes on exactly as Algorithm 4 would.

        A finite ``w`` must lie in ``(0, 1]`` and come with exactly ``k``
        items.  ``w = inf`` means the reservoir holds the *entire* surviving
        population (the fill phase): fewer than ``k`` items, and the skip
        resets.  ``ValueError`` otherwise, before any state changes.
        """
        if math.isinf(w):
            if len(sample) >= self.k:
                raise ValueError(
                    f"a fill-phase reservoir (w = inf) holds fewer than k = "
                    f"{self.k} items, got {len(sample)}"
                )
        elif not 0.0 < w <= 1.0:
            raise ValueError(f"w must be in (0, 1] or inf, got {w}")
        elif len(sample) != self.k:
            raise ValueError(
                f"a reservoir with finite w holds k = {self.k} items, got "
                f"{len(sample)}"
            )
        self._sample = list(sample)
        self._w = w
        self._pending_skip = 0 if math.isinf(w) else geometric_skip(w, self._rng)

    def snapshot_state(self) -> dict:
        """The sampler's complete resumable state (plain data, no objects).

        Everything Algorithm 4/5 carries between batches: the reservoir
        contents, the running ``w``, the pending skip count that may span
        batch boundaries, and the observability counters.  The driving RNG
        is deliberately *not* included — it is owned by whoever constructed
        the reservoir (the join sampler), which snapshots it exactly once
        via ``random.Random.getstate()`` so shared-RNG configurations do not
        capture the same state twice.
        """
        return {
            "k": self.k,
            "sample": list(self._sample),
            "w": self._w,
            "pending_skip": self._pending_skip,
            "items_total": self.items_total,
            "items_examined": self.items_examined,
            "real_stops": self.real_stops,
            "batches_processed": self.batches_processed,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` snapshot (exact resumption).

        The reservoir must have been constructed with the same ``k`` the
        snapshot was taken under (a different capacity is a configuration
        mismatch, not a resumable state) — ``ValueError`` otherwise.
        """
        if state["k"] != self.k:
            raise ValueError(
                f"reservoir snapshot was taken with k={state['k']}, but this "
                f"reservoir has k={self.k}"
            )
        self._sample = list(state["sample"])
        self._w = state["w"]
        self._pending_skip = state["pending_skip"]
        self.items_total = state["items_total"]
        self.items_examined = state["items_examined"]
        self.real_stops = state["real_stops"]
        self.batches_processed = state["batches_processed"]

    def process_batch(self, batch: FunctionBatch[T]) -> None:
        """Algorithm 5 (``BatchUpdate``): fold one batch into the reservoir."""
        self.batches_processed += 1
        self.items_total += len(batch)
        # Fill phase: while the reservoir is not yet full, every item must be
        # examined (nothing can be skipped safely).
        while len(self._sample) < self.k and batch.remain() > 0:
            item = batch.skip(0)
            self.items_examined += 1
            if self.predicate(item):
                self.real_stops += 1
                self._sample.append(item)
        if len(self._sample) < self.k:
            return
        if math.isinf(self._w):
            # First time the reservoir is full: initialise w and the skip.
            self._w = _uniform(self._rng) ** (1.0 / self.k)
            self._pending_skip = geometric_skip(self._w, self._rng)
        # Skip phase within this batch.
        while batch.remain() > self._pending_skip:
            item = batch.skip(self._pending_skip)
            self.items_examined += 1
            if self.predicate(item):
                self.real_stops += 1
                self._sample[self._rng.randrange(self.k)] = item
                self._w *= _uniform(self._rng) ** (1.0 / self.k)
            self._pending_skip = geometric_skip(self._w, self._rng)
        # The remaining items of the batch are all skipped; carry the
        # outstanding skip count over to the next batch.
        self._pending_skip -= batch.remain()
