"""The test oracles: exhaustive ground truth and the chi-square uniformity test.

The ground truth of a join is the full result set, computed by loading the
stream into a :class:`~repro.relational.database.Database` and enumerating
the join; for a turnstile stream it is the join over the rows that survive
its retractions.

The headline correctness claim of the paper is that, at every point of the
stream, the reservoir is a *uniform* sample without replacement of the join
results seen so far.  These helpers turn that claim into a testable
hypothesis: run a sampler many times with independent randomness, count how
often each join result lands in the final reservoir, and compare the counts
against the uniform expectation with a chi-square goodness-of-fit test.

Under uniformity every result is included with probability ``k / |Q(R)|`` per
trial, so across ``T`` trials the per-result inclusion counts are
``Binomial(T, k/|Q(R)|)`` and the chi-square statistic over all results is a
standard goodness-of-fit check.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, List, Mapping, Sequence, Tuple

from scipy import stats as scipy_stats

from repro.relational import Database, JoinQuery, join_results
from repro.relational.stream import surviving_rows


def result_key(result: Mapping[str, object]) -> Tuple:
    """A hashable canonical key for a join result dict."""
    return tuple(sorted(result.items()))


def ground_truth(query: JoinQuery, stream: Sequence) -> List[dict]:
    """Full join results after the whole stream has been inserted."""
    database = Database(query)
    for item in stream:
        database.insert(item.relation, item.row)
    return join_results(query, database)


def ground_truth_keys(query: JoinQuery, stream: Sequence) -> set:
    """Hashable canonical keys of the ground-truth join results."""
    return {result_key(result) for result in ground_truth(query, stream)}


def surviving_ground_truth(query: JoinQuery, stream: Sequence) -> List[dict]:
    """Full join results over the rows *surviving* a turnstile stream.

    :func:`~repro.relational.stream.surviving_rows` replays the tombstone
    semantics (a delete annihilates its matching insert wherever it lands
    in the stream), and the join is evaluated over exactly the survivors.
    """
    database = Database(query)
    for relation, rows in surviving_rows(stream).items():
        for row in rows:
            database.insert(relation, row)
    return join_results(query, database)


def inclusion_counts(samples_per_trial: Sequence[Sequence[Mapping[str, object]]]) -> Counter:
    """Count, per join result, in how many trials it appeared in the reservoir."""
    counts: Counter = Counter()
    for sample in samples_per_trial:
        seen = {result_key(result) for result in sample}
        counts.update(seen)
    return counts


def chi_square_uniformity(
    counts: Mapping[Tuple, int],
    universe_size: int,
    trials: int,
    sample_size: int,
) -> Tuple[float, float]:
    """Chi-square goodness-of-fit of inclusion counts against uniformity.

    Parameters
    ----------
    counts:
        Per-result inclusion counts (results never sampled may be missing).
    universe_size:
        ``|Q(R)|`` — the number of distinct join results.
    trials:
        Number of independent sampler runs.
    sample_size:
        The reservoir size ``k`` used in each run (capped at the universe).

    Returns ``(statistic, p_value)``.  A *small* p-value is evidence against
    uniformity; tests typically assert ``p_value > 0.01``.
    """
    if universe_size <= 0:
        raise ValueError("the universe of join results is empty")
    # Sorted, so the floating-point sums inside scipy do not follow the
    # set-iteration order of the result keys, which varies with
    # PYTHONHASHSEED: the p-value is then a function of the counts alone.
    observed = sorted(counts.values())
    # Include the results that were never sampled.
    missing = universe_size - len(observed)
    observed.extend([0] * missing)
    if len(observed) < 2:
        return 0.0, 1.0
    # Compare against the uniform *shape*: the expected count per result is
    # the observed total spread evenly (scipy requires matching totals; for a
    # correct sampler the total is trials * min(k, universe) anyway).
    total = sum(observed)
    if total == 0:
        return 0.0, 1.0
    expected = total / len(observed)
    statistic, p_value = scipy_stats.chisquare(observed, f_exp=[expected] * len(observed))
    del trials, sample_size  # kept in the signature for documentation purposes
    return float(statistic), float(p_value)


def uniformity_p_value(
    run_sampler: Callable[[int], Sequence[Mapping[str, object]]],
    universe: Sequence[Mapping[str, object]],
    trials: int,
    sample_size: int,
) -> float:
    """Convenience wrapper: run ``run_sampler(seed)`` ``trials`` times and test.

    ``run_sampler`` must return the final reservoir for the given seed;
    ``universe`` is the full list of join results (ground truth).
    """
    samples = [run_sampler(seed) for seed in range(trials)]
    counts = inclusion_counts(samples)
    universe_keys = {result_key(result) for result in universe}
    unexpected = set(counts) - universe_keys
    if unexpected:
        raise AssertionError(
            f"sampler produced {len(unexpected)} results outside the true join"
        )
    _, p_value = chi_square_uniformity(counts, len(universe_keys), trials, sample_size)
    return p_value


def max_abs_inclusion_deviation(
    counts: Mapping[Tuple, int],
    universe_size: int,
    trials: int,
    sample_size: int,
) -> float:
    """Largest absolute deviation of empirical inclusion frequency from k/|Q|.

    A cruder but more interpretable companion to the chi-square test.
    """
    if universe_size <= 0:
        raise ValueError("the universe of join results is empty")
    effective_k = min(sample_size, universe_size)
    expected = effective_k / universe_size
    deviations = [abs(count / trials - expected) for count in counts.values()]
    missing = universe_size - len(counts)
    if missing > 0:
        deviations.append(expected)
    return max(deviations) if deviations else 0.0
