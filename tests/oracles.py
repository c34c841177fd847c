"""The test oracles: exhaustive ground truth, the dynamic index's families
checked against recounted degrees, its delta batches read position by
position, the chi-square uniformity test and the instance-optimal stop bound
of the skip-based reservoir.

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
from functools import partial
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

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


def validate_index(index) -> None:
    """Check every family of a ``DynamicJoinIndex`` against ground truth.

    On top of ``index.check_invariants()``: ``cnt`` is at least the true
    degree of its key on the child's side of the edge, and ``c̃nt`` is at
    most ``2^{|T_e|}`` times it (Lemma 4.4).  Raises ``AssertionError`` on a
    violation of the bounds.  Slow: every degree is recounted from the rows.
    """
    index.check_invariants()
    rooted = {}
    for (parent, child), families in index.families.items():
        # The rooting at the parent has the child's whole side below it.
        root = child if parent is None else parent
        if root not in rooted:
            rooted[root] = index._join_tree.rooted_at(root)
        tree = rooted[root]
        subtree = tree.subtree_size(child)
        for key, family in families.items():
            truth = true_degree(index.database, tree, child, key)
            assert family.cnt >= truth, (
                f"cnt at {parent}->{child}/{key} underestimates the true degree: "
                f"{family.cnt} < {truth}"
            )
            # Lemma 4.4 gives c̃nt <= 2^{|T_e|} * truth; the grouping
            # optimisation adds one more factor of two through f̃eq.
            assert truth == 0 or family.approx <= (2 ** (subtree + 1)) * truth, (
                f"c̃nt at {parent}->{child}/{key} exceeds the Lemma 4.4 bound"
            )


def true_degree(database: Database, tree, node: str, key: Tuple) -> int:
    """The exact number of results of the sub-join below ``node`` in the
    rooted join ``tree`` whose projection onto ``key(node)`` equals ``key``.

    It scans rows: a hash index built here would tax every later insert.
    """
    schema = database[node].schema
    key_attrs = tree.key_of(node)
    children = [(child, tree.key_of(child)) for child in tree.children_of(node)]
    total = 0
    for row in database[node].rows:
        if schema.project(row, key_attrs) != key:
            continue
        product = 1
        for child, child_attrs in children:
            product *= true_degree(database, tree, child, schema.project(row, child_attrs))
            if product == 0:
                break
        total += product
    return total


def delta_batch_items(view, row: Sequence) -> List[Optional[dict]]:
    """Every position of the delta batch of ``row``, just inserted into the
    root relation of ``view`` (a rooted ``TreeIndex`` view, or SJoin's
    ``ExactTreeIndex``), read through the index's own size and Retrieve;
    a dummy position reads ``None``."""
    row = tuple(row)
    if hasattr(view, "delta_retrieve"):
        retrieve = view.delta_retrieve()
    else:
        retrieve = partial(view._retrieve_full, view.root)
    return [retrieve(row, position) for position in range(view.delta_batch_size(row))]


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


def expected_stop_bound(real_prefix_counts: Sequence[int], k: int) -> float:
    """The instance-optimal bound  Σ_i min(1, k / (r_i + 1))  of Theorem 3.3.

    ``real_prefix_counts[i]`` must be ``r_{i+1}``, i.e. the number of real
    items among the first ``i`` items (so index 0 holds ``r_1 = 0``).  The
    skip-based reservoir's ``items_examined`` is compared against it.
    """
    return sum(min(1.0, k / (r + 1)) for r in real_prefix_counts)
