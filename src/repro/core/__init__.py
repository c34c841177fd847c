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
from .skippable import FunctionBatch, ListBatch, is_real
from .reservoir import ReservoirSampler, geometric_skip
from .predicate_backend import PredicateStreamSampler
from .batch_reservoir import BatchedPredicateReservoir
from .reservoir_join import ReservoirJoin

__all__ = [
    "SamplerBackend",
    "PerTupleBatchMixin",
    "chunk_apply",
    "derive_seed",
    "FunctionBatch",
    "ListBatch",
    "is_real",
    "ReservoirSampler",
    "geometric_skip",
    "PredicateStreamSampler",
    "BatchedPredicateReservoir",
    "ReservoirJoin",
]
