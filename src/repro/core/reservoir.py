"""Classical reservoir sampling (Section 3.1) and the draws the skip loop makes.

* :class:`ReservoirSampler` — Waterman's algorithm (attributed by Knuth):
  O(1) work per item, O(N) total.  This is the ``RS`` baseline of
  Section 6.3 when combined with per-item predicate evaluation.  It
  maintains a uniform sample *without replacement* of size ``k`` over an
  unbounded stream and never needs to know the stream length in advance.
* :func:`geometric_skip` — the skip-length draw of Li's Algorithm L [24].
  The skip loop itself lives in
  :class:`~repro.core.batch_reservoir.BatchedPredicateReservoir`: Algorithm L
  is its one-batch run with an always-true predicate.
"""

from __future__ import annotations

import math
import random
from typing import Generic, Iterable, List, Optional, TypeVar

T = TypeVar("T")


def _uniform(rng: random.Random) -> float:
    """A uniform draw from the open interval (0, 1)."""
    value = rng.random()
    while value <= 0.0:
        value = rng.random()
    return value


def geometric_skip(w: float, rng: random.Random) -> int:
    """Draw ``q ~ Geo(w)``: the number of failures before the first success.

    Follows the paper's formulation ``q = floor(ln(rand()) / ln(1 - w))``.
    ``w`` must lie in (0, 1]; for ``w == 1`` the skip is always 0.
    """
    if not 0.0 < w <= 1.0:
        raise ValueError(f"geometric parameter must be in (0, 1], got {w}")
    if w >= 1.0:
        return 0
    return int(math.floor(math.log(_uniform(rng)) / math.log(1.0 - w)))


class ReservoirSampler(Generic[T]):
    """Waterman's classic reservoir sampling algorithm.

    Maintains ``k`` uniform samples without replacement from all items
    processed so far in O(1) time per item.
    """

    def __init__(self, k: int, rng: Optional[random.Random] = None) -> None:
        if k <= 0:
            raise ValueError("sample size k must be positive")
        self.k = k
        self._rng = rng if rng is not None else random.Random()
        self._sample: List[T] = []
        self.items_seen = 0

    @property
    def sample(self) -> List[T]:
        """The current reservoir (a copy)."""
        return list(self._sample)

    def process(self, item: T) -> None:
        """Feed one item to the sampler."""
        self.items_seen += 1
        if len(self._sample) < self.k:
            self._sample.append(item)
            return
        j = self._rng.randrange(self.items_seen)
        if j < self.k:
            self._sample[j] = item

    def process_many(self, items: Iterable[T]) -> None:
        """Feed a whole iterable of items."""
        for item in items:
            self.process(item)

    def __len__(self) -> int:
        return len(self._sample)
