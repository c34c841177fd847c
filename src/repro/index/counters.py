"""Power-of-two approximate counters (Sections 4.2 and 4.3).

The dynamic index never stores exact degree counts in its buckets; it rounds
every count up to the nearest power of two (``c̃nt = 2^⌈log2 cnt⌉``).  Because
counts only grow in an insert-only stream, each approximate counter changes at
most ``O(log N)`` times, which is what makes the amortised ``O(log N)`` update
bound possible.
"""

from __future__ import annotations


def next_pow2(value: int) -> int:
    """``2^⌈log2 value⌉`` for positive ``value``; 0 maps to 0.

    >>> [next_pow2(v) for v in (0, 1, 2, 3, 4, 5, 8, 9)]
    [0, 1, 2, 4, 4, 8, 8, 16]
    """
    if value < 0:
        raise ValueError("counts cannot be negative")
    if value == 0:
        return 0
    return 1 << (value - 1).bit_length()

