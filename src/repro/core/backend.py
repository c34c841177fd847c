"""The :class:`SamplerBackend` protocol: what the ingestion seam asks of a sampler.

Every sampler in this repository — :class:`~repro.core.reservoir_join
.ReservoirJoin` and its turnstile and sliding-window subclasses,
:class:`~repro.cyclic.cyclic_join.CyclicReservoirJoin`, the predicate
stream sampler and the two baselines (SJoin and the symmetric hash join) —
maintains its reservoir through the same small interface: per-tuple
``insert``, a chunk method ``insert_batch``, the ``sample`` property,
``statistics()``.  This module is the one place that knows the interface,
so the ingestors (and anything else that drives samplers) share a single
probe, a single per-tuple adapter, and a single seed-derivation rule.

Four layers of service:

* **The protocol** (:class:`SamplerBackend`) — the structural type a backend
  must satisfy to ride the ingestion seam.  Conformance is duck-typed
  (``typing.Protocol``); samplers do not import this module to conform.
* **Capability probing** (:func:`chunk_apply`) — the chunk method a given
  backend offers: a segmenting ``ingest_batch``, else ``insert_batch``.
* **Seed derivation** (:func:`derive_seed`) — the one rule for splitting a
  master RNG into independent child RNGs, so their randomness is
  reproducible and never shared.
* **Durability** (:func:`snapshot_backend`, :func:`restore_backend`) — the
  one rule every checkpointing ingestor uses to capture and rebuild a
  backend: a whole-object pickle under the backend's class path (see
  :mod:`repro.ingest.checkpoint` for the file format on top).

:class:`PerTupleBatchMixin` is the one per-tuple→chunk adapter: the
``insert_batch`` of samplers without a structural bulk path (the
baselines) validates the whole chunk up front, then drives the per-tuple
``insert`` loop.
"""

from __future__ import annotations

import importlib
import pickle
import random
from typing import Callable, Dict, Iterable, List, Protocol, Sequence, Tuple, runtime_checkable

from ..relational.stream import validated_items

#: Bits of entropy drawn from a master RNG per derived replica seed.  48 bits
#: keeps seeds comfortably collision-free at any realistic replica count
#: while staying exactly reproducible across platforms.
SEED_BITS = 48


@runtime_checkable
class SamplerBackend(Protocol):
    """The maintenance interface every reservoir sampler exposes.

    This is a structural protocol: any object with these members conforms,
    no registration or inheritance required.  ``isinstance(obj,
    SamplerBackend)`` checks member *presence* (the useful runtime check);
    static checkers verify the signatures.

    Required members
    ----------------
    ``insert(relation, row)``
        Absorb one stream tuple.  The reservoir must be a uniform sample
        without replacement of the join results of everything inserted so
        far when the call returns.
    ``sample``
        The current reservoir (a list of attr→value dicts).
    ``statistics()``
        A flat dict of observability counters.

    The chunk method the seam drives
    --------------------------------
    ``insert_batch(items)`` (or a segmenting ``ingest_batch``)
        Absorb a chunk of ``StreamTuple``/``(relation, row)`` items; must
        validate the whole chunk before any mutation and keep the
        reservoir uniform at the chunk boundary.  :func:`chunk_apply`
        refuses a backend with neither; a per-tuple sampler gets one from
        :class:`PerTupleBatchMixin`.

    Optional capabilities (probed, never assumed)
    ---------------------------------------------
    ``reservoir``
        The :class:`~repro.core.batch_reservoir.BatchedPredicateReservoir`
        behind ``sample``.

    Durability asks for no method: a backend checkpoints by pickling whole
    (:func:`snapshot_backend`), so it must pickle end to end, the exact
    RNG state included.  Every sampler in this repository does.
    """

    def insert(self, relation: str, row: Sequence) -> None: ...

    @property
    def sample(self) -> List[dict]: ...

    def statistics(self) -> Dict[str, object]: ...


def chunk_apply(backend) -> Tuple[Callable[[Sequence], object], str]:
    """How to hand ``backend`` a chunk: ``(apply, mode)``.

    Probe order — the single dispatch rule of
    :class:`~repro.ingest.batch.BatchIngestor`:

    1. ``ingest_batch`` (``mode='ingest_batch'``) — the backend segments its
       own chunks (a turnstile sampler splitting out its retractions);
    2. ``insert_batch`` (``mode='insert_batch'``) — the sampler's chunk
       path, which validates the whole chunk before any mutation.

    A backend with neither raises ``TypeError``: a sampler that only has a
    per-tuple ``insert`` mixes in :class:`PerTupleBatchMixin`, the one
    per-tuple→chunk adapter.  The returned callable takes one chunk
    (``StreamTuple`` or ``(relation, row)`` items) and applies it whole;
    ``mode`` is the name of the method it is.
    """
    for mode in ("ingest_batch", "insert_batch"):
        apply = getattr(backend, mode, None)
        if callable(apply):
            return apply, mode
    raise TypeError(
        f"{type(backend).__name__} exposes neither ingest_batch nor "
        "insert_batch; a per-tuple sampler gets insert_batch by mixing in "
        "repro.core.backend.PerTupleBatchMixin"
    )


def _class_path(obj) -> str:
    """``module:QualName`` of an object's class, for snapshot self-description."""
    cls = type(obj)
    return f"{cls.__module__}:{cls.__qualname__}"


def _load_class(path: str):
    """Resolve a :func:`_class_path` string back to the class object.

    A path this code base cannot resolve — the record names a retired class
    or module — raises
    :class:`~repro.ingest.checkpoint.CheckpointMismatchError` naming it.
    """
    module_name, _, qualname = path.partition(":")
    try:
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as error:
        from ..ingest.checkpoint import CheckpointMismatchError

        raise CheckpointMismatchError(
            f"snapshot record names {path}, which cannot be loaded here "
            f"({error}): a retired ingestion mode or sampler, or a module "
            "missing from this environment"
        ) from None
    return obj


def snapshot_backend(backend) -> Dict[str, object]:
    """One backend's complete resumable state as a self-describing record.

    The whole object is pickled: every sampler in this repository pickles
    end to end (cached projection getters included), and its object graph
    is exactly what a bit-identical resumption needs.  The record also
    carries the backend's class path, so :func:`restore_backend` can refuse
    a retired class by name before unpickling anything.
    """
    return {"class": _class_path(backend), "state": pickle.dumps(backend)}


def restore_backend(record: Dict[str, object]):
    """Rebuild a backend from a :func:`snapshot_backend` record.

    The recorded class is resolved first, so a record naming a class this
    version no longer has fails as
    :class:`~repro.ingest.checkpoint.CheckpointMismatchError`; the state
    then simply unpickles.
    """
    _load_class(record["class"])
    return pickle.loads(record["state"])


def derive_seed(rng: random.Random) -> int:
    """Draw one replica seed from a master RNG (:data:`SEED_BITS` bits).

    Every component that owns child randomness (a server's epoch cuts and
    predicate views) derives it through this single rule, so a run is
    reproducible from one master seed and two children never share an RNG.
    """
    return rng.getrandbits(SEED_BITS)


class PerTupleBatchMixin:
    """Shared ``insert_batch`` for samplers without a structural bulk path.

    The baselines (SJoin, symmetric hash join) and the tests' naive
    recompute sampler gain nothing from chunk-level grouping — their
    per-tuple work is already the whole cost — but must still speak the
    batched seam.  Mixing this in gives them
    the canonical fallback: validate the *whole* chunk before any mutation
    (unknown relation → ``KeyError``, so a failed call leaves the sampler
    untouched), then drive the per-tuple :meth:`insert` loop and report how
    many new (non-duplicate) tuples were absorbed.

    Hooks
    -----
    * The query validated against is ``self.original_query`` when present
      (samplers that rewrite their query, e.g. SJoin with the foreign-key
      optimisation) else ``self.query``.  Validation is the full
      :func:`~repro.relational.stream.validated_items` check — unknown
      relation *and* wrong arity both raise before any mutation, the same
      contract the structural bulk paths honour.
    * :meth:`_accepted_tuples` is the monotone count of absorbed
      non-duplicate tuples; the default reads the ``tuples_processed`` /
      ``duplicates_ignored`` counters every sampler keeps.
    * :meth:`_insert_pairs` drives the validated pairs; override it to batch
      differently (the tests' naive sampler defers its recompute to the chunk
      boundary) while keeping the shared validation front half.
    """

    def insert_batch(self, items: Iterable) -> int:
        """Process a chunk of stream tuples; returns new tuples absorbed.

        ``KeyError`` (unknown relation) and ``ValueError`` (wrong arity)
        are raised before any state changes — whole-chunk validation,
        exactly like the structural bulk paths of
        ``ReservoirJoin.insert_batch``.
        """
        query = getattr(self, "original_query", None) or self.query
        pairs = validated_items(items, query)
        return self._insert_pairs(pairs)

    def _insert_pairs(self, pairs: List[Tuple[str, tuple]]) -> int:
        before = self._accepted_tuples()
        for relation, row in pairs:
            self.insert(relation, row)
        return self._accepted_tuples() - before

    def _accepted_tuples(self) -> int:
        return self.tuples_processed - self.duplicates_ignored


__all__ = [
    "SEED_BITS",
    "SamplerBackend",
    "chunk_apply",
    "derive_seed",
    "snapshot_backend",
    "restore_backend",
    "PerTupleBatchMixin",
]
