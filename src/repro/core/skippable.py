"""The batch protocol: a size and constant-time access by position.

A :class:`FunctionBatch` offers the positional primitives of Sections 3.2/3.3:

* ``skip(i)`` — skip the next ``i`` items and return the ``(i+1)``-th item
  (``skip(0)`` is the paper's ``next()``);
* ``remain()`` — the number of items left in the batch.

Skipping past the end of a batch raises.  The join index of Section 4 holds
delta batches of join results addressed by position; dummy positions yield
``None`` items, which is exactly what the predicate filters out.  On ingest
no batch object is built: the join samplers hand the index's Retrieve
straight to the reservoir's ``process_deferred_many``.  These classes are
what ``process_batch`` reads: a chunk of a plain item stream, a test's
batch, or a delta batch built to inspect it.
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

    This is the shape of the delta batches ``ΔJ`` produced by the dynamic
    join index: the batch is never materialised; ``retrieve(z)`` computes the
    join result at position ``z`` on demand (Algorithm 9) and returns ``None``
    for dummy positions.
    """

    def __init__(self, size: int, retrieve: Callable[[int], Optional[T]]) -> None:
        if size < 0:
            raise ValueError("batch size must be non-negative")
        self._size = size
        self._retrieve = retrieve
        self._pos = 0

    def skip(self, count: int) -> Optional[T]:
        """Skip ``count`` items and return the following one.

        ``ValueError`` for a negative ``count``, ``IndexError`` when fewer
        than ``count + 1`` items remain.
        """
        position = self._pos + count
        if count < 0:
            raise ValueError("cannot skip a negative number of items")
        if position >= self._size:
            raise IndexError(
                f"skip({count}) runs past the end of the batch "
                f"({self._size - self._pos} items remain)"
            )
        self._pos = position + 1
        return self._retrieve(position)

    def remain(self) -> int:
        """Number of items not yet consumed."""
        return self._size - self._pos

    def __len__(self) -> int:
        return self._size


class ListBatch(FunctionBatch[T]):
    """A :class:`FunctionBatch` over an in-memory list (one chunk of a
    plain item stream, and the tests' batches)."""

    def __init__(self, items: Iterable[T]) -> None:
        items = list(items)
        super().__init__(len(items), items.__getitem__)
