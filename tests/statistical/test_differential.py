"""Randomized differential tests against the naive baseline (marked ``slow``).

Small random acyclic queries and streams are generated from fixed seeds; for
every flag combination of :class:`ReservoirJoin` (``grouping`` ×
``foreign_key`` × ``maintain_root``) and for the batched ``insert_batch``
path, the sampler must draw from *exactly* the join-result set that
``tests/naive.py`` recomputes from scratch:

* with a reservoir larger than the join, the sample must equal the full
  result set (the reservoir never evicts, so any missing or spurious result
  is an index bug);
* with a small reservoir, every sample must be a subset, and the union over
  many seeds must cover (nearly) the whole set.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Tuple

import pytest

from repro import BatchIngestor, JoinQuery, ReservoirJoin, StreamTuple

from tests.conftest import random_stream, stat_trials
from tests.naive import NaiveRecomputeSampler
from tests.oracles import ground_truth_keys, result_key

#: Seeds for the coverage loop; scaled down by REPRO_STAT_TRIALS in CI.  The
#: floor keeps the expected coverage (1 - (1 - k/|Q|)^seeds) comfortably
#: above the 0.9 assertion even in the smoke profile.
COVERAGE_SEEDS = max(40, stat_trials(120))

FLAG_COMBOS = [
    dict(grouping=grouping, foreign_key=foreign_key, maintain_root=maintain_root)
    for grouping, foreign_key, maintain_root in itertools.product([False, True], repeat=3)
]


def chain_case(rng: random.Random) -> Tuple[JoinQuery, List[StreamTuple]]:
    length = rng.choice([2, 3, 4])
    spec = {f"R{i}": [f"x{i}", f"x{i + 1}"] for i in range(length)}
    query = JoinQuery.from_spec(f"chain-{length}", spec)
    return query, random_stream(query, rng, n=120, domain=rng.choice([4, 6]))


def star_case(rng: random.Random) -> Tuple[JoinQuery, List[StreamTuple]]:
    arms = rng.choice([3, 4])
    spec = {f"R{i}": ["x0", f"x{i}"] for i in range(1, arms + 1)}
    query = JoinQuery.from_spec(f"star-{arms}", spec)
    return query, random_stream(query, rng, n=100, domain=4)


def payload_case(rng: random.Random) -> Tuple[JoinQuery, List[StreamTuple]]:
    """A chain whose middle relation has a non-join payload attribute.

    The payload attribute makes the grouping optimisation genuinely active
    (several tuples share the same join-attribute projection).
    """
    spec = {"R0": ["x0", "x1"], "R1": ["x1", "p", "x2"], "R2": ["x2", "x3"]}
    query = JoinQuery.from_spec("payload-chain", spec)
    return query, random_stream(query, rng, n=120, domain=4)


def keyed_case(rng: random.Random) -> Tuple[JoinQuery, List[StreamTuple]]:
    """A fact/dimension query with a declared key (foreign-key rewriting fires)."""
    query = JoinQuery.from_spec(
        "fact-dims",
        {"F": ["a", "d1", "d2"], "D1": ["d1", "u"], "D2": ["d2", "v"]},
        keys={"D1": ["d1"], "D2": ["d2"]},
    )
    stream = [StreamTuple("D1", (key, rng.randrange(3))) for key in range(4)]
    stream += [StreamTuple("D2", (key, rng.randrange(3))) for key in range(4)]
    stream += [
        StreamTuple("F", (rng.randrange(3), rng.randrange(5), rng.randrange(5)))
        for _ in range(60)
    ]
    rng.shuffle(stream)
    return query, stream


CASES = [chain_case, star_case, payload_case, keyed_case]


@pytest.mark.parametrize("case_seed", [11, 23, 47])
@pytest.mark.parametrize("build_case", CASES, ids=[c.__name__ for c in CASES])
def test_all_flag_combos_draw_exactly_the_naive_result_set(build_case, case_seed):
    rng = random.Random(case_seed)
    query, stream = build_case(rng)
    truth = ground_truth_keys(query, stream)
    if len(truth) < 2:
        pytest.skip("degenerate random instance (join too small)")
    k_all = len(truth) + 5

    naive = NaiveRecomputeSampler(query, k_all, rng=random.Random(1)).process(stream)
    naive_set = {result_key(r) for r in naive.sample}
    assert naive_set == truth  # the baseline itself agrees with ground truth

    for flags in FLAG_COMBOS:
        pertuple = ReservoirJoin(query, k_all, rng=random.Random(2), **flags)
        pertuple.process(stream)
        assert {result_key(r) for r in pertuple.sample} == naive_set, flags

        batched = ReservoirJoin(query, k_all, rng=random.Random(3), **flags)
        BatchIngestor(batched, chunk_size=17).ingest(stream)
        assert {result_key(r) for r in batched.sample} == naive_set, flags


@pytest.mark.parametrize("build_case", CASES, ids=[c.__name__ for c in CASES])
def test_small_reservoir_samples_are_subsets_and_cover_the_set(build_case):
    rng = random.Random(2024)
    query, stream = build_case(rng)
    truth = ground_truth_keys(query, stream)
    if len(truth) < 8:
        pytest.skip("degenerate random instance (join too small)")
    k = max(3, len(truth) // 8)

    covered = set()
    for seed in range(COVERAGE_SEEDS):
        batched = ReservoirJoin(query, k, rng=random.Random(seed))
        BatchIngestor(batched, chunk_size=31).ingest(stream)
        sample_keys = {result_key(r) for r in batched.sample}
        assert sample_keys <= truth  # never a result outside the true join
        assert len(batched.sample) == min(k, len(truth))
        covered |= sample_keys
    # Every result must be reachable: near-total coverage across seeds.
    assert len(covered) >= 0.9 * len(truth)


@pytest.mark.parametrize("chunk_size", [1, 7, 1000])
def test_chunk_size_does_not_change_the_drawable_set(chunk_size):
    rng = random.Random(5)
    query, stream = chain_case(rng)
    truth = ground_truth_keys(query, stream)
    k_all = len(truth) + 5
    sampler = ReservoirJoin(query, k_all, rng=random.Random(1))
    BatchIngestor(sampler, chunk_size=chunk_size).ingest(stream)
    assert {result_key(r) for r in sampler.sample} == truth
