"""Degree buckets Φ_{i,e}(t) and per-key bucket families (Section 4.3).

For every (directed join-tree edge into node ``e``, key tuple ``t``) the
index organises the *entities* below that key — full tuples of ``R_e ⋉ t``,
or group tuples when the grouping optimisation is active — into buckets by
their power-of-two weight: bucket ``i`` holds the entities whose weight is
``2^i``.  The family also maintains

* ``cnt`` — the exact sum of entity weights, i.e. the paper's ``cnt[T, e, t]``;
* ``approx`` — ``c̃nt[T, e, t] = 2^⌈log2 cnt⌉``.

Buckets support O(1) insertion, O(1) removal (swap-with-last) and O(1)
positional access.  A family keeps its non-empty buckets in ascending
exponent order, so it maps a position ``z ∈ [0, cnt)`` to the entity whose
weight range contains ``z`` by walking them in the order it holds them
(there are at most ``O(log N)``; see :meth:`BucketFamily.locate`).

A family's state is ``(cnt, [(exponent, entities), ...])``: ``approx`` and
each bucket's entity → position map are derived state, rebuilt on load.  A
family pickles as that state, and a pickled
:class:`~repro.index.dynamic_index.DynamicJoinIndex` holds its families as
the bare tuples and rebuilds them through :meth:`BucketFamily.__setstate__`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple


class Bucket:
    """An indexable set of entities with O(1) position access.

    :meth:`BucketFamily.reweight` inserts and removes (swap-with-last) in
    O(1).
    """

    __slots__ = ("_items", "_positions")

    def __init__(self) -> None:
        self._items: List[Tuple] = []
        self._positions: Dict[Tuple, int] = {}

    def __contains__(self, entity: Tuple) -> bool:
        return entity in self._positions

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._items)


class BucketFamily:
    """All buckets of one (node, key tuple) pair, plus its ``cnt``/``c̃nt``.

    ``_buckets`` maps each non-empty bucket's exponent to it, in ascending
    exponent order.
    """

    __slots__ = ("cnt", "approx", "_buckets")

    def __init__(self) -> None:
        self.cnt = 0
        self.approx = 0
        self._buckets: Dict[int, Bucket] = {}

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def reweight(self, entity: Tuple, old_weight: int, new_weight: int) -> None:
        """Move an entity from weight ``old_weight`` to ``new_weight``.

        ``old_weight == 0`` means the entity is not yet present; a
        ``new_weight`` of 0 removes it from all buckets.  Removal swaps the
        entity with the last one of its bucket.  Nothing is re-checked:
        weights must be powers of two (or zero) and ``old_weight`` must be
        the entity's current weight, which the index guarantees because
        every factor of a weight is an approximate (power-of-two) counter.

        Emptying a bucket deletes it, which keeps the exponent order; a
        bucket created below the top exponent re-sorts the family's
        ``O(log N)`` buckets.
        """
        buckets = self._buckets
        if old_weight:
            exponent = old_weight.bit_length() - 1
            bucket = buckets[exponent]
            positions = bucket._positions
            items = bucket._items
            position = positions.pop(entity)
            last = items.pop()
            if position < len(items):
                items[position] = last
                positions[last] = position
            if not items:
                del buckets[exponent]
        if new_weight:
            exponent = new_weight.bit_length() - 1
            bucket = buckets.get(exponent)
            if bucket is None:
                below_top = buckets and exponent < next(reversed(buckets))
                bucket = buckets[exponent] = Bucket()
                if below_top:
                    self._buckets = dict(sorted(buckets.items()))
            bucket._positions[entity] = len(bucket._items)
            bucket._items.append(entity)
        count = self.cnt + new_weight - old_weight
        self.cnt = count
        self.approx = (1 << (count - 1).bit_length()) if count else 0

    # ------------------------------------------------------------------ #
    # Position mapping (the core of Retrieve, Algorithm 9 Case 3)
    # ------------------------------------------------------------------ #
    def locate(self, position: int) -> Optional[Tuple[Tuple, int]]:
        """Map ``position`` to ``(entity, offset_within_entity)``.

        Positions are laid out bucket by bucket (ascending weight exponent),
        entity by entity within a bucket, each entity spanning ``2^i``
        consecutive positions.  Returns ``None`` when ``position >= cnt``
        (a dummy position introduced by the ``c̃nt`` padding one level up).

        Cost: the buckets are held in exponent order, so the walk visits at
        most the ``b = O(log N)`` non-empty buckets and sorts nothing.
        """
        if position < 0:
            raise ValueError("positions must be non-negative")
        if position >= self.cnt:
            return None
        for exponent, bucket in self._buckets.items():
            items = bucket._items
            span = len(items) << exponent
            if position < span:
                entity_index = position >> exponent
                return items[entity_index], position - (entity_index << exponent)
            position -= span
        # Unreachable if cnt is consistent with the bucket contents.
        raise AssertionError("bucket family count is inconsistent with its buckets")

    # ------------------------------------------------------------------ #
    # Pickling
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Tuple[int, List[Tuple[int, List[Tuple]]]]:
        return self.cnt, [(exponent, bucket._items) for exponent, bucket in self._buckets.items()]

    def __setstate__(self, state) -> None:
        count, buckets = state
        self._buckets = {}
        for exponent, items in buckets:
            bucket = self._buckets[exponent] = Bucket()
            bucket._items = items
            bucket._positions = dict(zip(items, range(len(items))))
        self.cnt = count
        self.approx = (1 << (count - 1).bit_length()) if count else 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def bucket_sizes(self) -> Dict[int, int]:
        """``{exponent: number of entities}`` for the non-empty buckets."""
        return {exponent: len(bucket) for exponent, bucket in self._buckets.items()}

    def weight_sum(self) -> int:
        """Recompute Σ 2^i·|Φ_i| from scratch (must equal ``cnt``; test hook)."""
        return sum(len(bucket) << exponent for exponent, bucket in self._buckets.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BucketFamily(cnt={self.cnt}, approx={self.approx}, buckets={self.bucket_sizes()})"
