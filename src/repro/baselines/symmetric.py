"""Symmetric-hash-join baseline.

The simplest streaming solution mentioned in Section 6.1: for every arriving
tuple, *materialise* the delta results ``ΔQ(R, t)`` with a symmetric
(index-assisted) join and push each of them through the classic reservoir
sampler.  Total time is proportional to the join size ``|Q(R)|``, which can
be polynomially larger than the input — the cost the paper's algorithm
avoids — but every produced result is real, which makes this baseline an
excellent ground-truth oracle for tests: it knows the exact join size and
produces provably uniform samples.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.backend import PerTupleBatchMixin
from ..core.reservoir import ReservoirSampler
from ..relational.database import Database
from ..relational.join import iter_delta_results
from ..relational.query import JoinQuery
from ..relational.stream import StreamTuple


class SymmetricHashJoinSampler(PerTupleBatchMixin):
    """Materialise every delta result; sample with the classic reservoir.

    ``insert_batch`` comes from :class:`~repro.core.backend
    .PerTupleBatchMixin`: every delta result is materialised either way, so
    there is no bulk saving to exploit — the mixin's validated per-tuple
    loop makes the baseline drop-in compatible with the batched seam.
    """

    def __init__(
        self,
        query: JoinQuery,
        k: int,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.query = query
        self.k = k
        self.database = Database(query)
        self.reservoir: ReservoirSampler = ReservoirSampler(k, rng=rng)
        self.tuples_processed = 0
        self.duplicates_ignored = 0
        self.total_join_size = 0

    def insert(self, relation: str, row: Sequence) -> None:
        """Process one stream tuple."""
        row = tuple(row)
        if self.database.insert(relation, row):
            for result in iter_delta_results(self.query, self.database, relation, row):
                self.total_join_size += 1
                self.reservoir.process(result)
        else:
            self.duplicates_ignored += 1
        # Counted only once absorbed: a rejected tuple leaves no trace.
        self.tuples_processed += 1

    def process(self, stream: Iterable[StreamTuple]) -> "SymmetricHashJoinSampler":
        """Process a whole stream of :class:`StreamTuple`."""
        for item in stream:
            self.insert(item.relation, item.row)
        return self

    @property
    def sample(self) -> List[dict]:
        """The current reservoir."""
        return self.reservoir.sample

    @property
    def sample_size(self) -> int:
        return len(self.reservoir)

    def statistics(self) -> Dict[str, int]:
        return {
            "tuples_processed": self.tuples_processed,
            "duplicates_ignored": self.duplicates_ignored,
            "stored_tuples": self.database.size,
            "total_join_size": self.total_join_size,
            "sample_size": self.sample_size,
        }
