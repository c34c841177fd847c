"""Naive rebuild-and-resample baseline (Section 1).

After every insertion, recompute the full join from scratch and draw ``k``
fresh samples without replacement.  Total cost is Θ(N · |Q(R)|) or worse —
this exists purely as the simplest possible correct reference for tiny test
instances and as the strawman the paper's introduction argues against.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.backend import PerTupleBatchMixin
from repro.relational.database import Database
from repro.relational.join import join_results
from repro.relational.query import JoinQuery
from repro.relational.stream import StreamTuple


class NaiveRecomputeSampler(PerTupleBatchMixin):
    """Recompute ``Q(R)`` after every insert and resample.

    The chunked seam comes from :class:`~repro.core.backend
    .PerTupleBatchMixin`, with :meth:`_insert_pairs` overridden to the
    natural batched semantics of a rebuild-everything baseline: insert the
    whole chunk, then recompute and resample *once* at the chunk boundary
    (instead of once per tuple) — the sample stays a uniform draw from the
    join of the prefix ending at the boundary.
    """

    def __init__(
        self,
        query: JoinQuery,
        k: int,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.query = query
        self.k = k
        self._rng = rng if rng is not None else random.Random()
        self.database = Database(query)
        self._sample: List[dict] = []
        self.tuples_processed = 0
        self.recomputations = 0
        self.last_join_size = 0

    def insert(self, relation: str, row: Sequence) -> None:
        """Process one stream tuple and rebuild the sample from scratch."""
        self.tuples_processed += 1
        if not self.database.insert(relation, row):
            return
        self._recompute()

    def _insert_pairs(self, pairs) -> int:
        """One recompute per chunk: bulk-insert, then rebuild the sample once."""
        self.tuples_processed += len(pairs)
        inserted = sum(
            1 for relation, row in pairs if self.database.insert(relation, row)
        )
        if inserted:
            self._recompute()
        return inserted

    def spawn(self, rng: Optional[random.Random] = None) -> "NaiveRecomputeSampler":
        """A fresh, empty replica of this sampler driven by ``rng``."""
        return NaiveRecomputeSampler(self.query, self.k, rng=rng)

    def _recompute(self) -> None:
        results = join_results(self.query, self.database)
        self.recomputations += 1
        self.last_join_size = len(results)
        if len(results) <= self.k:
            self._sample = results
        else:
            self._sample = self._rng.sample(results, self.k)

    def process(self, stream: Iterable[StreamTuple]) -> "NaiveRecomputeSampler":
        """Process a whole stream of :class:`StreamTuple`."""
        for item in stream:
            self.insert(item.relation, item.row)
        return self

    @property
    def sample(self) -> List[dict]:
        """The current sample (rebuilt after the last insertion)."""
        return list(self._sample)

    @property
    def sample_size(self) -> int:
        return len(self._sample)

    def statistics(self) -> Dict[str, int]:
        return {
            "tuples_processed": self.tuples_processed,
            "recomputations": self.recomputations,
            "last_join_size": self.last_join_size,
            "sample_size": self.sample_size,
        }
