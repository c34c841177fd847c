"""Core sampling algorithms: reservoirs, predicates, batches and the join sampler.

:mod:`repro.core.backend` defines the :class:`SamplerBackend` protocol — the
maintenance interface (``insert`` / ``insert_batch`` / ``sample`` /
``statistics`` plus probed capabilities) that every sampler here conforms to
and the ingestion seam is written against.
"""

from .backend import (
    PerTupleBatchMixin,
    SamplerBackend,
    chunk_apply,
    derive_seed,
)
from .skippable import (
    END_OF_STREAM,
    Batch,
    FunctionBatch,
    ListBatch,
    ListStream,
    SkippableStream,
    is_real,
)
from .reservoir import ReservoirSampler, SkipReservoirSampler, geometric_skip
from .predicate_reservoir import PredicateReservoir, expected_stop_bound
from .predicate_backend import PredicateStreamSampler
from .batch_reservoir import BatchedPredicateReservoir
from .reservoir_join import ReservoirJoin

__all__ = [
    "SamplerBackend",
    "PerTupleBatchMixin",
    "chunk_apply",
    "derive_seed",
    "END_OF_STREAM",
    "Batch",
    "FunctionBatch",
    "ListBatch",
    "ListStream",
    "SkippableStream",
    "is_real",
    "ReservoirSampler",
    "SkipReservoirSampler",
    "geometric_skip",
    "PredicateReservoir",
    "PredicateStreamSampler",
    "expected_stop_bound",
    "BatchedPredicateReservoir",
    "ReservoirJoin",
]
