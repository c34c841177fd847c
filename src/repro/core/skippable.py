"""The batch protocol: a size and constant-time access by position.

A :class:`FunctionBatch` is the shape of Sections 3.2/3.3: ``len(batch)``
items, the one at position ``z`` computed on demand.  The join index of
Section 4 holds delta batches of join results addressed by position; dummy
positions yield ``None`` items, which is exactly what the predicate filters
out.  On ingest no batch object is built: the join samplers hand the index's
Retrieve straight to the reservoir's ``process_deferred_many``.  These
classes are what ``process_batch`` reads: a chunk of a plain item stream or
a test's batch.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterable, Optional, TypeVar

T = TypeVar("T")


#: Default predicate: an item is *real* unless it is ``None`` (a dummy).
def is_real(item: object) -> bool:
    """The ``isReal`` predicate of Algorithm 6: dummies are ``None``."""
    return item is not None


class FunctionBatch(Generic[T]):
    """A lazy batch defined by a size and a position->item function.

    The batch is never materialised: ``retrieve(z)`` computes the item at
    position ``z`` on demand.  For a delta batch ``ΔJ`` that is the join
    result of Algorithm 9, and ``None`` at a dummy position.
    """

    def __init__(self, size: int, retrieve: Callable[[int], Optional[T]]) -> None:
        if size < 0:
            raise ValueError("batch size must be non-negative")
        self._size = size
        self._retrieve = retrieve

    def __len__(self) -> int:
        return self._size


class ListBatch(FunctionBatch[T]):
    """A :class:`FunctionBatch` over an in-memory list (one chunk of a
    plain item stream, and the tests' batches)."""

    def __init__(self, items: Iterable[T]) -> None:
        items = list(items)
        super().__init__(len(items), items.__getitem__)
