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
batch is the (never materialised) delta array ``ΔJ ⊇ ΔQ(R, t)``, given as its
size and the index's Retrieve.  The batched sampler behaves exactly as
Algorithm 1 over the concatenation of all batches; the only extra machinery
is carrying a pending skip count across batch boundaries (a skip may run off
the end of the current batch).  So this one loop,
:meth:`BatchedPredicateReservoir.process_deferred_many`, is every skip-based
reservoir of the paper: Algorithm 1 is a run over one batch, and Li's
Algorithm L is Algorithm 1 with an always-true predicate.  Cutting a stream
into batches anywhere changes no draw.
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

    The sampler is fed item-disjoint batches, many at a time through
    :meth:`process_deferred_many` or one batch object through
    :meth:`process_batch`, and maintains ``k`` uniform samples without
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

    def __len__(self) -> int:
        return len(self._sample)

    def process_deferred_many(
        self,
        sizes: "List[int]",
        retrieve: Callable[[object, int], Optional[T]],
        args: "List",
    ) -> None:
        """Algorithm 5 (``BatchUpdate``) over many batches: the one skip loop.

        Batch ``i`` has ``sizes[i]`` positions, and its item at ``position``
        is ``retrieve(args[i], position)``, called only at the positions the
        sampler stops at.  Folding ``sizes`` in one call is folding them one
        at a time: every draw comes in the same order.  A batch the pending
        skip covers is never touched, so once the simulated result stream
        is long, almost every delta batch costs a comparison and two
        additions.  ``w``, the pending skip and the counters stay in locals
        for the whole call.
        """
        if sizes and min(sizes) < 0:
            raise ValueError("batch size must be non-negative")
        k = self.k
        sample = self._sample
        predicate = self.predicate
        rng = self._rng
        exponent = 1.0 / k
        w = self._w
        pending = self._pending_skip
        total = self.items_total
        examined = self.items_examined
        real = self.real_stops
        for size, arg in zip(sizes, args):
            total += size
            # Until the reservoir first fills, w is inf and the pending skip
            # 0, so only an empty batch is skipped here.
            if pending >= size:
                pending -= size
                continue
            position = 0
            if math.isinf(w):
                # Fill phase: every item is examined until the reservoir is
                # full, which initialises w and the skip.
                while len(sample) < k and position < size:
                    item = retrieve(arg, position)
                    position += 1
                    examined += 1
                    if predicate(item):
                        real += 1
                        sample.append(item)
                if len(sample) < k:
                    continue
                w = _uniform(rng) ** exponent
                pending = geometric_skip(w, rng)
            # Skip phase: stop at every position the geometric skips land
            # on, and carry the overshoot past the batch's end to the next.
            position += pending
            while position < size:
                item = retrieve(arg, position)
                examined += 1
                if predicate(item):
                    real += 1
                    sample[rng.randrange(k)] = item
                    w *= _uniform(rng) ** exponent
                position += geometric_skip(w, rng) + 1
            pending = position - size
        self._w = w
        self._pending_skip = pending
        self.items_total = total
        self.items_examined = examined
        self.real_stops = real
        self.batches_processed += len(sizes)

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
        """The sampler's complete resumable state as plain data.

        Everything Algorithm 4/5 carries between batches: the reservoir
        contents, the running ``w``, the pending skip count that may span
        batch boundaries, and the observability counters.  The driving RNG
        is deliberately *not* included — it is owned by whoever constructed
        the reservoir (the join sampler).  Checkpoints pickle the owning
        sampler whole; this record exists to compare two reservoirs.
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

    def process_batch(self, batch: FunctionBatch[T]) -> None:
        """Fold one fresh batch: :meth:`process_deferred_many` over it alone."""
        self.process_deferred_many([len(batch)], lambda get, position: get(position), [batch._retrieve])
