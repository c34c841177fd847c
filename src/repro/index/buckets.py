"""Degree buckets Φ_{i,e}(t) and per-key bucket families (Section 4.3).

For every (directed join-tree edge into node ``e``, key tuple ``t``) the
index organises the *entities* below that key — full tuples of ``R_e ⋉ t``,
or group tuples when the grouping optimisation is active — into buckets by
their power-of-two weight: bucket ``i`` holds the entities whose weight is
``2^i``.  The family also maintains

* ``cnt`` — the exact sum of entity weights, i.e. the paper's ``cnt[T, e, t]``;
* ``approx`` — ``c̃nt[T, e, t] = 2^⌈log2 cnt⌉``.

A bucket is a bare list of entities, and one entity → index map per family
records where each entity sits in its bucket, so buckets support O(1)
insertion, O(1) removal (swap-with-last) and O(1) positional access.  A
family keeps its non-empty buckets in ascending exponent order, so it maps a
position ``z ∈ [0, cnt)`` to the entity whose weight range contains ``z`` by
walking them in the order it holds them (there are at most ``O(log N)``; see
:meth:`BucketFamily.locate`).

A family's state is ``(cnt, [(exponent, entities), ...])``: ``approx`` and
the position map are derived state, rebuilt on load.  A family pickles as
that state, and a pickled
:class:`~repro.index.dynamic_index.DynamicJoinIndex` holds its families as
the bare tuples and rebuilds them through :meth:`BucketFamily.__setstate__`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class BucketFamily:
    """All buckets of one (node, key tuple) pair, plus its ``cnt``/``c̃nt``.

    ``_buckets`` maps each non-empty bucket's exponent to the bare list of
    its entities, in ascending exponent order.  ``_positions`` maps every
    entity of the family to its index in its bucket's list; it is one map
    for all the buckets, since an entity sits in exactly one of them.
    """

    __slots__ = ("cnt", "approx", "_buckets", "_positions")

    def __init__(self) -> None:
        self.cnt = 0
        self.approx = 0
        self._buckets: Dict[int, List[Tuple]] = {}
        self._positions: Dict[Tuple, int] = {}

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

        A move between two non-zero weights overwrites the entity's
        position in place and pops it only on removal: in CPython a popped
        key that is inserted again takes a fresh entry slot, so popping on
        every move would grow the map until it resized.

        Emptying a bucket deletes it, which keeps the exponent order; a
        bucket created below the top exponent re-sorts the family's
        ``O(log N)`` buckets.
        """
        buckets = self._buckets
        positions = self._positions
        if old_weight:
            exponent = old_weight.bit_length() - 1
            items = buckets[exponent]
            position = positions[entity] if new_weight else positions.pop(entity)
            last = items.pop()
            if position < len(items):
                items[position] = last
                positions[last] = position
            if not items:
                del buckets[exponent]
        if new_weight:
            exponent = new_weight.bit_length() - 1
            items = buckets.get(exponent)
            if items is None:
                below_top = buckets and exponent < next(reversed(buckets))
                items = buckets[exponent] = []
                if below_top:
                    self._buckets = dict(sorted(buckets.items()))
            positions[entity] = len(items)
            items.append(entity)
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
        for exponent, items in self._buckets.items():
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
        return self.cnt, list(self._buckets.items())

    def __setstate__(self, state) -> None:
        count, buckets = state
        self._buckets = dict(buckets)
        positions = self._positions = {}
        for items in self._buckets.values():
            positions.update(zip(items, range(len(items))))
        self.cnt = count
        self.approx = (1 << (count - 1).bit_length()) if count else 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def bucket_sizes(self) -> Dict[int, int]:
        """``{exponent: number of entities}`` for the non-empty buckets."""
        return {exponent: len(items) for exponent, items in self._buckets.items()}

    def weight_sum(self) -> int:
        """Recompute Σ 2^i·|Φ_i| from scratch (must equal ``cnt``; test hook)."""
        return sum(len(items) << exponent for exponent, items in self._buckets.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BucketFamily(cnt={self.cnt}, approx={self.approx}, buckets={self.bucket_sizes()})"
