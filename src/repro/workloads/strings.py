"""String streams with an edit-distance predicate (Section 6.3).

The last experiment of the paper compares the predicate-aware reservoir
sampler (RSWP, Algorithm 1) against the classic reservoir sampler (RS) on a
stream of random strings: an item is *real* when its edit distance to a fixed
query string is at most a threshold.  The point of the experiment is that RS
must evaluate the (expensive) predicate on every item, while RSWP skips most
items entirely once the reservoir is full.

The paper uses 1024-character strings and a threshold of 16; a pure-Python
reproduction scales this down (default 64 characters, threshold 8), which
preserves the cost asymmetry between "evaluate the predicate" and "skip".
The banded Levenshtein implementation below only explores the diagonal band
of width ``2·limit + 1``, exactly the optimisation a production system would
use for a thresholded distance.
"""

from __future__ import annotations

import random
import string
from typing import List, Tuple


def levenshtein_within(first: str, second: str, limit: int) -> bool:
    """Whether the edit distance between two strings is at most ``limit``.

    Uses the classic banded dynamic program: cells farther than ``limit``
    from the diagonal can never lead to a distance within the threshold, so
    only a band of width ``2·limit + 1`` is evaluated, with early exit when a
    whole row exceeds the limit.
    """
    if limit < 0:
        raise ValueError("limit must be non-negative")
    if abs(len(first) - len(second)) > limit:
        return False
    if first == second:
        return True
    infinity = limit + 1
    previous = [col if col <= limit else infinity for col in range(len(second) + 1)]
    for row, char_a in enumerate(first, start=1):
        low = max(1, row - limit)
        high = min(len(second), row + limit)
        current = [infinity] * (len(second) + 1)
        if row <= limit:
            current[0] = row
        best = current[0]
        for col in range(low, high + 1):
            char_b = second[col - 1]
            cost = 0 if char_a == char_b else 1
            value = min(
                previous[col] + 1,          # deletion
                current[col - 1] + 1,       # insertion
                previous[col - 1] + cost,   # substitution / match
            )
            value = min(value, infinity)
            current[col] = value
            if value < best:
                best = value
        if best > limit:
            return False
        previous = current
    return previous[len(second)] <= limit


def levenshtein(first: str, second: str) -> int:
    """Plain (unbanded) Levenshtein distance; used as ground truth in tests."""
    previous = list(range(len(second) + 1))
    for row, char_a in enumerate(first, start=1):
        current = [row]
        for col, char_b in enumerate(second, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(min(previous[col] + 1, current[col - 1] + 1, previous[col - 1] + cost))
        previous = current
    return previous[len(second)]


class EditDistancePredicate:
    """The experiment's predicate: "within ``threshold`` edits of the query string".

    Counts how many times it was evaluated, which is the work the skip-based
    sampler saves (Figures 12 and 13 report exactly this asymmetry as time).
    """

    def __init__(self, query_string: str, threshold: int) -> None:
        self.query_string = query_string
        self.threshold = threshold
        self.evaluations = 0

    def __call__(self, item: str) -> bool:
        self.evaluations += 1
        return levenshtein_within(self.query_string, item, self.threshold)


def random_string(length: int, rng: random.Random, alphabet: str = string.ascii_lowercase) -> str:
    """A uniformly random string of the given length."""
    return "".join(rng.choice(alphabet) for _ in range(length))


def perturb(base: str, edits: int, rng: random.Random, alphabet: str = string.ascii_lowercase) -> str:
    """Apply ``edits`` random single-character edits (substitute/insert/delete)."""
    chars = list(base)
    for _ in range(edits):
        operation = rng.randrange(3)
        if operation == 0 and chars:  # substitution
            chars[rng.randrange(len(chars))] = rng.choice(alphabet)
        elif operation == 1:  # insertion
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(alphabet))
        elif chars:  # deletion
            del chars[rng.randrange(len(chars))]
    return "".join(chars)


def string_stream(
    n_items: int,
    density: float,
    rng: random.Random,
    base_length: int = 64,
    threshold: int = 8,
) -> Tuple[List[str], str, EditDistancePredicate]:
    """Build a φ-dense string stream plus its query string and predicate.

    Real items are perturbations of the query string within ``threshold``
    edits, dummies are perturbed far beyond the threshold (at least
    ``3·threshold`` edits of which ``threshold+1`` are guaranteed-distance
    insertions).  Real items are spread evenly so every prefix has at least a
    ``density`` fraction of real items (Definition 3.4).
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    query_string = random_string(base_length, rng)
    items: List[str] = []
    reals_so_far = 0
    for position in range(1, n_items + 1):
        need_real = reals_so_far < density * position
        if need_real:
            item = perturb(query_string, rng.randrange(threshold + 1), rng)
            reals_so_far += 1
        else:
            # Make the item long enough that the length difference alone
            # already exceeds the threshold: it is certainly a dummy.
            padding = random_string(threshold + 1, rng)
            item = perturb(query_string, 2 * threshold, rng) + padding
        items.append(item)
    predicate = EditDistancePredicate(query_string, threshold)
    return items, query_string, predicate
