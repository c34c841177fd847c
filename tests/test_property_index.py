"""Property-based tests: the dynamic index against ground truth on random inputs.

These tests generate random acyclic queries and random insertion streams and
check the strongest available invariants:

* every delta batch's real items are exactly the ground-truth delta results;
* the reservoir never contains a non-result and never misses results when
  ``k`` exceeds the join size;
* the index's structural invariants (``validate``) hold after every stream.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reservoir_join import ReservoirJoin
from repro.index.dynamic_index import DynamicJoinIndex
from repro.relational import Database, JoinQuery, delta_results, join_results
from repro.relational.stream import StreamTuple

from tests.oracles import delta_batch_items, result_key, validate_index


# A small pool of structurally different acyclic queries.
QUERY_POOL = [
    JoinQuery.from_spec("p-two", {"A": ["x", "y"], "B": ["y", "z"]}),
    JoinQuery.from_spec(
        "p-line3", {"A": ["x", "y"], "B": ["y", "z"], "C": ["z", "w"]}
    ),
    JoinQuery.from_spec(
        "p-star3", {"A": ["h", "a"], "B": ["h", "b"], "C": ["h", "c"]}
    ),
    JoinQuery.from_spec(
        "p-tree",
        {
            "A": ["x", "y"],
            "B": ["y", "z", "p"],
            "C": ["z", "w"],
            "D": ["y", "q"],
        },
    ),
    JoinQuery.from_spec(
        "p-wide",
        {"A": ["x", "y"], "B": ["y", "z", "payload"], "C": ["z", "w"]},
    ),
]


def build_stream(query: JoinQuery, draws, domain: int):
    """Turn hypothesis draws into a valid stream for the query."""
    stream = []
    names = query.relation_names
    for relation_pick, values in draws:
        relation = names[relation_pick % len(names)]
        arity = query.relation(relation).arity
        row = tuple(values[i % len(values)] % domain for i in range(arity))
        stream.append(StreamTuple(relation, row))
    return stream


stream_draws = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10),
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=50,
)


class TestDeltaBatchesMatchGroundTruth:
    @given(
        query_index=st.integers(min_value=0, max_value=len(QUERY_POOL) - 1),
        draws=stream_draws,
        domain=st.integers(min_value=2, max_value=5),
        grouping=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_batches_and_invariants(self, query_index, draws, domain, grouping):
        query = QUERY_POOL[query_index]
        stream = build_stream(query, draws, domain)
        index = DynamicJoinIndex(query, grouping=grouping, maintain_root=True)
        shadow = Database(query)
        for item in stream:
            if not index.insert(item.relation, item.row):
                continue
            shadow.insert(item.relation, item.row)
            got = Counter(
                result_key(res)
                for res in delta_batch_items(index.trees[item.relation], item.row)
                if res is not None
            )
            expected = Counter(
                result_key(res)
                for res in delta_results(query, shadow, item.relation, item.row)
            )
            assert got == expected
        validate_index(index)
        truth = join_results(query, shadow)
        assert index.total_weight() >= len(truth)


class TestReservoirNeverLies:
    @given(
        query_index=st.integers(min_value=0, max_value=len(QUERY_POOL) - 1),
        draws=stream_draws,
        domain=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_reservoir_subset_and_complete(self, query_index, draws, domain, seed):
        query = QUERY_POOL[query_index]
        stream = build_stream(query, draws, domain)
        sampler = ReservoirJoin(query, k=1000, rng=random.Random(seed))
        shadow = Database(query)
        for item in stream:
            sampler.insert(item.relation, item.row)
            shadow.insert(item.relation, item.row)
        truth = {result_key(res) for res in join_results(query, shadow)}
        sample_keys = [result_key(res) for res in sampler.sample]
        # k is larger than any join these streams can produce: the reservoir
        # must contain every result exactly once.
        assert len(sample_keys) == len(set(sample_keys))
        assert set(sample_keys) == truth
