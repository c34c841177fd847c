"""Drive the predicate-aware reservoir (Algorithm 1) through the ingestion seam.

:class:`~repro.core.batch_reservoir.BatchedPredicateReservoir` samples the
*real* items of a stream — the Section 6.3 experiment filters strings by
edit distance to a query string — but its native interface
(``process_batch``) is not the :class:`~repro.core.backend.SamplerBackend`
protocol the ingestion seam speaks.  :class:`PredicateStreamSampler` closes
that gap: it presents a single-relation stream of ``(item,)`` rows as a
conforming backend and folds each chunk into the reservoir as one
:class:`~repro.core.skippable.ListBatch`.

Semantics at chunk boundaries
-----------------------------
The reservoir carries its sample, the running ``w``, the pending skip and
the RNG from one chunk to the next, so the chunks are sampled as one
logical stream: the uniformity guarantee holds at every chunk boundary, and
every chunking of a stream (one item per chunk included) gives the same
sample and the same RNG state under the same seed.

The adapter deliberately exposes **no** ``query`` and **no** ``index``:
there is no join to count.  Batched and checkpoint modes both apply.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from ..relational.stream import as_relation_rows
from .batch_reservoir import BatchedPredicateReservoir
from .skippable import ListBatch, is_real


class PredicateStreamSampler:
    """A :class:`SamplerBackend` adapter over :class:`BatchedPredicateReservoir`.

    Parameters
    ----------
    k:
        Reservoir size (uniform sample of the *real* items seen so far).
    predicate:
        ``θ``; evaluated on the single value of each row.  Must be picklable
        for the sampler to checkpoint (module-level functions and plain
        callable classes such as
        :class:`~repro.workloads.strings.EditDistancePredicate` are; lambdas
        are not).
    rng:
        Seedable randomness source, driving the underlying reservoir.

    The adapter accepts rows of the single relation :attr:`RELATION` and
    reports sampled items under :attr:`ATTRIBUTE` in :attr:`sample` result
    dicts.
    """

    #: The one relation name the adapter accepts.
    RELATION = "S"
    #: The attribute under which sampled items appear in result dicts.
    ATTRIBUTE = "item"

    def __init__(
        self,
        k: int,
        predicate: Callable[[object], bool] = is_real,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._rng = rng if rng is not None else random.Random()
        self.reservoir: BatchedPredicateReservoir = BatchedPredicateReservoir(
            k, predicate, rng=self._rng
        )
        self.tuples_processed = 0
        self.chunks_processed = 0

    @property
    def k(self) -> int:
        return self.reservoir.k

    @property
    def predicate(self) -> Callable[[object], bool]:
        return self.reservoir.predicate

    # ------------------------------------------------------------------ #
    # Streaming interface (the SamplerBackend protocol)
    # ------------------------------------------------------------------ #
    def _validated_values(self, items: Sequence) -> List[object]:
        """Whole-chunk validation *before* any mutation (the seam contract):
        unknown relation raises ``KeyError``, wrong arity ``ValueError``."""
        pairs = as_relation_rows(items)
        values: List[object] = []
        for relation, row in pairs:
            if relation != self.RELATION:
                raise KeyError(
                    f"relation {relation!r} is not the predicate stream "
                    f"relation {self.RELATION!r}"
                )
            if len(row) != 1:
                raise ValueError(
                    f"predicate stream rows carry exactly one value, "
                    f"got arity {len(row)}"
                )
            values.append(row[0])
        return values

    def insert(self, relation: str, row: Sequence) -> None:
        """Absorb one stream tuple ``(item,)``: a one-item :meth:`insert_batch`."""
        self.insert_batch([(relation, row)])

    def insert_batch(self, items: Sequence) -> int:
        """Absorb one chunk as one batch of the reservoir.

        Validates the whole chunk before any state changes, then samples the
        chunk as the next segment of the logical stream.  Returns the number
        of tuples absorbed.
        """
        values = self._validated_values(items)
        if not values:
            return 0
        self.reservoir.process_batch(ListBatch(values))
        self.tuples_processed += len(values)
        self.chunks_processed += 1
        return len(values)

    @property
    def sample(self) -> List[Dict[str, object]]:
        """The current reservoir as attr→value dicts (protocol shape)."""
        return [{self.ATTRIBUTE: item} for item in self.reservoir.sample]

    def statistics(self) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "k": self.k,
            "sample_size": len(self.reservoir),
            "tuples_processed": self.tuples_processed,
            "chunks_processed": self.chunks_processed,
            "stops": self.reservoir.items_examined,
            "real_stops": self.reservoir.real_stops,
        }
        evaluations = getattr(self.predicate, "evaluations", None)
        if evaluations is not None:
            stats["predicate_evaluations"] = evaluations
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PredicateStreamSampler(k={self.k}, |sample|={len(self.reservoir)})"
        )


__all__ = ["PredicateStreamSampler"]
