"""The ground-truth oracles of ``tests/oracles.py`` catch what they exist for.

``validate_index`` and ``true_degree`` stand behind every index test, so a
check that could never fail would let every one of them pass vacuously.  Here
each is run on a driven index and on one corrupted in a way that
``check_invariants`` cannot see: a family whose ``cnt`` stays the sum of its
bucket weights but no longer bounds the true degree.
"""

from __future__ import annotations

import pytest

from repro.index.counters import next_pow2
from repro.index.dynamic_index import DynamicJoinIndex
from repro.relational import join_results

from tests.conftest import make_edges, make_graph_stream
from tests.oracles import true_degree, validate_index


def replay(query):
    index = DynamicJoinIndex(query)
    for item in make_graph_stream(query, make_edges(5, 15, seed=21), seed=22):
        index.insert(item.relation, item.row)
    return index


def leaf_family(index):
    """A non-empty family on an edge into a leaf, with its true degree: a
    leaf's entities are its rows, each of weight 1, so ``cnt`` is exact."""
    for (parent, child), families in index.families.items():
        if parent is None:
            continue
        tree = index._join_tree.rooted_at(parent)
        if tree.subtree_size(child) != 1:
            continue
        for key, family in families.items():
            if family.cnt:
                truth = true_degree(index.database, tree, child, key)
                assert family.cnt == truth
                return family, truth
    raise AssertionError("no non-empty leaf family")


def test_true_degree_at_every_root_is_the_join_size(line3_query):
    index = replay(line3_query)
    size = len(join_results(line3_query, index.database))
    assert size > 0
    for root in line3_query.relation_names:
        tree = index._join_tree.rooted_at(root)
        assert true_degree(index.database, tree, root, ()) == size


def test_validate_index_rejects_a_cnt_below_the_true_degree(line3_query):
    index = replay(line3_query)
    validate_index(index)
    family, _ = leaf_family(index)
    entity = next(iter(family._buckets[0]))
    family.reweight(entity, 1, 0)
    index.check_invariants()  # still the sum of its buckets
    with pytest.raises(AssertionError, match="underestimates the true degree"):
        validate_index(index)


def test_validate_index_rejects_a_cnt_above_the_lemma_bound(line3_query):
    index = replay(line3_query)
    family, truth = leaf_family(index)
    entity = next(iter(family._buckets[0]))
    # An edge into a leaf allows c̃nt up to 2^(1+1) times the truth.
    family.reweight(entity, 1, next_pow2(8 * truth))
    index.check_invariants()
    with pytest.raises(AssertionError, match="exceeds the Lemma 4.4 bound"):
        validate_index(index)
