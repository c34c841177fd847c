"""Tests for the rooted views of the dynamic index and its edge-keyed
families (Algorithms 7/8/9)."""

import hashlib
import io
import pickle
import pickletools
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.core.reservoir_join import ReservoirJoin
from repro.core.turnstile import TurnstileReservoirJoin
from repro.index.buckets import BucketFamily
from repro.index.counters import next_pow2
from repro.index.dynamic_index import DynamicJoinIndex
from repro.ingest.batch import BatchIngestor
from repro.relational import JoinQuery, delta_results
from repro.relational.stream import StreamDelete, StreamTuple, turnstile_stream
from repro.workloads.graph import line_query, star_query
from repro.workloads.ldbc import q10_query

from tests.conftest import make_edges, make_graph_stream
from tests.density import batch_density_bound
from tests.oracles import delta_batch_items, result_key, validate_index
from tests.test_checkpoint import chain3_stream
from tests.test_turnstile import windowed_fixture_stream


def build_index(query, grouping=False):
    """A dynamic index whose every rooted view keeps its root family, as
    each per-rooting index once did, so each view can also sample the full
    join.  The plans maintain exactly the families the index holds, so the
    root families are added before the index is compiled again, while it is
    still empty."""
    index = DynamicJoinIndex(query, grouping=grouping, maintain_root=False)
    for name in query.relation_names:
        index.families[None, name] = {}
    index._compile()
    return index


def drive(query, stream, grouping=False, check_batches=True):
    """Replay a stream through the index, checking delta batches.

    For every inserted tuple the real items of the batch generated by the
    view rooted at the tuple's relation must equal the ground-truth delta
    query results.
    """
    index = build_index(query, grouping)
    for item in stream:
        if not index.insert(item.relation, item.row):
            continue
        if not check_batches:
            continue
        batch = delta_batch_items(index.trees[item.relation], item.row)
        got = Counter(result_key(res) for res in batch if res is not None)
        expected = Counter(
            result_key(res)
            for res in delta_results(query, index.database, item.relation, item.row)
        )
        assert got == expected, f"batch mismatch after inserting {item}"
    return index


class TestDeltaBatchCorrectness:
    def test_two_table(self, two_table_query):
        edges = make_edges(5, 12, seed=11)
        stream = make_graph_stream(two_table_query, edges, seed=12)
        drive(two_table_query, stream)

    def test_line3(self, line3_query):
        edges = make_edges(5, 14, seed=1)
        stream = make_graph_stream(line3_query, edges, seed=2)
        drive(line3_query, stream)

    def test_line4(self):
        query = line_query(4)
        edges = make_edges(4, 10, seed=3)
        stream = make_graph_stream(query, edges, seed=4)
        drive(query, stream)

    def test_star3(self, star3_query):
        edges = make_edges(5, 14, seed=5)
        stream = make_graph_stream(star3_query, edges, seed=6)
        drive(star3_query, stream)

    def test_star4_with_grouping(self):
        query = star_query(4)
        edges = make_edges(4, 10, seed=7)
        stream = make_graph_stream(query, edges, seed=8)
        drive(query, stream, grouping=True)

    def test_query_with_payload_attributes_grouped(self):
        query = JoinQuery.from_spec(
            "wide", {"Ra": ["x", "y"], "Rb": ["y", "z", "w"], "Rc": ["w", "u"]}
        )
        rng = random.Random(9)
        stream = []
        from repro.relational.stream import StreamTuple

        for _ in range(60):
            relation = rng.choice(query.relation_names)
            arity = query.relation(relation).arity
            stream.append(StreamTuple(relation, tuple(rng.randrange(4) for _ in range(arity))))
        drive(query, stream, grouping=False)
        drive(query, stream, grouping=True)


class TestInvariants:
    def test_validate_after_replay(self, line3_query):
        edges = make_edges(5, 15, seed=21)
        stream = make_graph_stream(line3_query, edges, seed=22)
        validate_index(drive(line3_query, stream, check_batches=False))

    def test_validate_with_grouping(self):
        query = star_query(4)
        edges = make_edges(4, 12, seed=23)
        stream = make_graph_stream(query, edges, seed=24)
        validate_index(drive(query, stream, grouping=True, check_batches=False))

    def test_batch_density_meets_bound(self, line3_query):
        edges = make_edges(5, 15, seed=31)
        stream = make_graph_stream(line3_query, edges, seed=32)
        dynamic = build_index(line3_query)
        for item in stream:
            if not dynamic.insert(item.relation, item.row):
                continue
            index = dynamic.trees[item.relation]
            size = index.delta_batch_size(item.row)
            if size == 0:
                continue
            real = sum(res is not None for res in delta_batch_items(index, item.row))
            # The root's subtree is the whole tree.
            bound = batch_density_bound(len(line3_query.relation_names), full_tuple=True)
            assert real >= bound * size - 1e-9

    def test_propagation_counter_grows(self, line3_query):
        edges = make_edges(5, 15, seed=41)
        stream = make_graph_stream(line3_query, edges, seed=42)
        assert drive(line3_query, stream, check_batches=False).propagations > 0


class TestFullQuerySampling:
    def test_total_weight_brackets_true_size(self, line3_query):
        from repro.relational import join_size

        edges = make_edges(5, 16, seed=51)
        stream = make_graph_stream(line3_query, edges, seed=52)
        dynamic = drive(line3_query, stream, check_batches=False)
        truth = join_size(line3_query, dynamic.database)
        for index in dynamic.trees.values():
            total = index.total_weight()
            assert total >= truth
            # |J| = O(|Q(R)|): the constant for line-3 is at most 2^(2*3-1).
            assert truth == 0 or total <= (2 ** 5) * truth

    def test_samples_are_real_results(self, line3_query):
        from repro.relational import join_results

        edges = make_edges(5, 16, seed=53)
        stream = make_graph_stream(line3_query, edges, seed=54)
        dynamic = drive(line3_query, stream, check_batches=False)
        real = {result_key(res) for res in join_results(line3_query, dynamic.database)}
        rng = random.Random(0)
        index = dynamic.trees["R1"]
        for _ in range(50):
            sample = index.sample(rng)
            assert result_key(sample) in real

    def test_sample_none_when_empty(self, line3_query):
        assert build_index(line3_query).trees["R1"].sample(random.Random(0)) is None

    def test_root_family_disabled(self, line3_query):
        dynamic = DynamicJoinIndex(line3_query, maintain_root=False)
        dynamic.insert("R1", (1, 2))
        for index in dynamic.trees.values():
            with pytest.raises(RuntimeError):
                index.total_weight()
        with pytest.raises(RuntimeError):
            dynamic.total_weight()

    def test_sampling_uniform_over_results(self, two_table_query):
        """Full-join sampling hits every result with roughly equal frequency."""
        from repro.relational import join_results

        dynamic = build_index(two_table_query)
        rows = {"R1": [(i, i % 3) for i in range(6)], "R2": [(j % 3, j) for j in range(6)]}
        for relation, relation_rows in rows.items():
            for row in relation_rows:
                dynamic.insert(relation, row)
        results = join_results(two_table_query, dynamic.database)
        universe = {result_key(res) for res in results}
        rng = random.Random(7)
        counts = Counter(result_key(dynamic.trees["R1"].sample(rng)) for _ in range(4000))
        assert set(counts) <= universe
        expected = 4000 / len(universe)
        for key in universe:
            assert abs(counts[key] - expected) < 6 * (expected ** 0.5) + 10


def family_state(family):
    # Bucket contents as sets: bulk insertion propagates a counter change
    # once per chunk instead of once per doubling, so the order in which
    # entities were moved between buckets differs.
    return (
        family.cnt,
        family.approx,
        {exponent: sorted(bucket) for exponent, bucket in family._buckets.items() if len(bucket)},
    )


class TestBulkInsert:
    """``insert_rows`` ends in the state per-row ``insert_row`` reaches."""

    def replay(self, query, by_relation, chunk):
        dynamic = DynamicJoinIndex(query)
        for relation, rows in by_relation.items():
            for start in range(0, len(rows), chunk):
                if chunk == 1:
                    dynamic.insert(relation, rows[start])
                else:
                    dynamic.insert_rows(relation, rows[start:start + chunk])
        state = {
            edge: {key: family_state(family) for key, family in families.items()}
            for edge, families in dynamic.families.items()
        }
        index = dynamic.trees[query.relation_names[0]]
        sizes = index.delta_batch_sizes(by_relation[index.root])
        assert sizes == [index.delta_batch_size(row) for row in by_relation[index.root]]
        return state, sizes

    @pytest.mark.parametrize("chunk", [15, 128])
    def test_bulk_matches_per_row(self, line3_query, chunk):
        rng = random.Random(7)
        by_relation = {}
        for name in line3_query.relation_names:
            rows = {(rng.randrange(25), rng.randrange(25)) for _ in range(300)}
            by_relation[name] = sorted(rows, key=lambda row: rng.random())
        assert self.replay(line3_query, by_relation, chunk) == self.replay(
            line3_query, by_relation, 1
        )


# ---------------------------------------------------------------------- #
# Samples pinned to recorded digests
# ---------------------------------------------------------------------- #
def _random_rows(query, count, domain, seed):
    rng = random.Random(seed)
    names = query.relation_names
    return [
        (name, tuple(rng.randrange(domain) for _ in range(query.relation(name).arity)))
        for name in (names[i % len(names)] for i in range(count))
    ]


def _digest(sample, examined, propagations):
    payload = repr(([list(result.items()) for result in sample], examined, propagations))
    return hashlib.sha256(payload.encode()).hexdigest()


_CHAIN3 = {"R1": ["x1", "x2"], "R2": ["x2", "x3"], "R3": ["x3", "x4"]}
_WIDE = {"Ra": ["x", "y"], "Rb": ["y", "z", "w"], "Rc": ["w", "u"]}


def _pinned_chain3():
    query = JoinQuery.from_spec("chain-3", _CHAIN3)
    sampler = ReservoirJoin(query, 30, rng=random.Random(1))
    rows = _random_rows(query, 900, 12, seed=2)
    for start in range(0, len(rows), 40):
        sampler.insert_batch(rows[start:start + 40])
    return _digest(sampler.sample, sampler.items_examined, sampler.index.propagations)


def _pinned_two_children():
    # Per-tuple inserts: every R2 row's delta batch is built under the rooting
    # at R2, whose two children (R1 and R3) take the multi-child radix path.
    query = JoinQuery.from_spec("chain-3", _CHAIN3)
    sampler = ReservoirJoin(query, 25, rng=random.Random(3))
    for relation, row in _random_rows(query, 600, 10, seed=4):
        sampler.insert(relation, row)
    return _digest(sampler.sample, sampler.items_examined, sampler.index.propagations)


def _pinned_grouped_payload():
    # Rb's ``z`` is joined by nobody, so under the rooting at Ra the node Rb
    # stores groups and Retrieve walks the GroupView member path.
    query = JoinQuery.from_spec("wide", _WIDE)
    sampler = ReservoirJoin(query, 20, rng=random.Random(5), grouping=True)
    rows = _random_rows(query, 600, 6, seed=6)
    for start in range(0, len(rows), 25):
        sampler.insert_batch(rows[start:start + 25])
    return _digest(sampler.sample, sampler.items_examined, sampler.index.propagations)


def _pinned_full_join_sample():
    query = JoinQuery.from_spec("wide", _WIDE)
    index = DynamicJoinIndex(query, grouping=True, maintain_root=True)
    for relation, row in _random_rows(query, 300, 5, seed=7):
        index.insert(relation, row)
    rng = random.Random(8)
    sample = [index.sample(rng) for _ in range(200)]
    return _digest(sample, index.total_weight(), index.propagations)


def _pinned_turnstile():
    query = JoinQuery.from_spec("chain-3", _CHAIN3)
    sampler = TurnstileReservoirJoin(query, 20, rng=random.Random(9))
    rng = random.Random(10)
    live = []
    chunk = []
    for relation, row in _random_rows(query, 800, 9, seed=11):
        if live and rng.random() < 0.3:
            chunk.append(StreamDelete(*live.pop(rng.randrange(len(live)))))
        chunk.append(StreamTuple(relation, row))
        live.append((relation, row))
        if len(chunk) >= 30:
            sampler.ingest_batch(chunk)
            chunk = []
    sampler.ingest_batch(chunk)
    return _digest(sampler.sample, sampler.items_examined, sampler.index.propagations)


_PINNED = {
    "chain3": (
        _pinned_chain3,
        "8a5fd1654ce7b9b13c90d1e678f7763a7d81e30d8a87fd4ed09f8e09963fd683",
    ),
    "two-children": (
        _pinned_two_children,
        "e09427f65338cc0a40adffd600c3080470fea6c8e0c71a80981b719af71d3482",
    ),
    "grouped-payload": (
        _pinned_grouped_payload,
        "9b9eacc0b2560dd8c85267a761370291e1d04edec2c251e199f52c5fadc48d81",
    ),
    "full-join-sample": (
        _pinned_full_join_sample,
        "719530e5238b5b0dceabc5b0270b529f3e8c355c2a67583ba2d7dde5ea60f31c",
    ),
    "turnstile": (
        _pinned_turnstile,
        "2fcc28a0fe749a01b48a629de27fd8f3d44c54fa759aa13222c3edcbac7e264a",
    ),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_samples_pinned_to_parent(case):
    """Samples, ``items_examined`` and ``propagations`` match recorded digests.

    The digests were recorded before the index compiled its per-node plan
    (the turnstile one again when its delete path stopped counting the
    join, and when it began netting each chunk per row); any change to
    positions, bucket order or RNG draws changes them.
    """
    run, expected = _PINNED[case]
    assert run() == expected


def _retrieve_digest(query, grouping):
    """Every position of every root row's delta batch, and of the full join.

    Every rooted view of an index that has seen inserts and deletes, so
    families hold several buckets, some emptied and re-created.
    """
    dynamic = build_index(query, grouping)
    rng = random.Random(12)
    names = query.relation_names
    live = []
    for i in range(240):
        name = names[i % len(names)]
        row = tuple(rng.randrange(8) for _ in range(query.relation(name).arity))
        if dynamic.insert(name, row):
            live.append((name, row))
        if live and rng.random() < 0.2:
            name, row = live.pop(rng.randrange(len(live)))
            dynamic.delete(name, row)
    found = []
    for index in dynamic.trees.values():
        for row in sorted(dynamic.database[index.root].rows):
            found.append(delta_batch_items(index, row))
        found.append([index.retrieve_global(z) for z in range(index.total_weight())])
    payload = repr([[None if r is None else list(r.items()) for r in run] for run in found])
    return hashlib.sha256(payload.encode()).hexdigest()


# Root rows are walked in sorted order, so the order a relation iterates its
# rows in after deletes does not enter the digest.  Binary line and star
# relations leave no attribute to group on, so their grouped digests equal
# the ungrouped ones; ``wide`` has grouped interior nodes.
_RETRIEVE_PINNED = {
    ("line-4", False): "12ec50a2c7366ee4b3c29aec24fa1757e7a29e844e0612f2250ead78d6abdc8b",
    ("line-4", True): "12ec50a2c7366ee4b3c29aec24fa1757e7a29e844e0612f2250ead78d6abdc8b",
    ("star-4", False): "257efcc13e0d8df5d5c0abf51a28802f9f0474f3c5a819b86f422e3d2c18d11c",
    ("star-4", True): "257efcc13e0d8df5d5c0abf51a28802f9f0474f3c5a819b86f422e3d2c18d11c",
    ("wide", False): "3c9f10b1031759c3474640fcc9e394925ceb8fdc2fbdd8e7011aa2006a216b64",
    ("wide", True): "a4b353b15d67bbd1a008f9734c7180851ad7551a4b665318f0881a5dadb519c5",
}


@pytest.mark.parametrize("name,grouping", sorted(_RETRIEVE_PINNED))
def test_retrieve_pinned_to_parent(name, grouping):
    """Retrieve returns the recorded result, key order included, at every
    position: the multi-child radix path (star-4), deep chains (line-4) and
    the group-member step (wide, grouped)."""
    query = {
        "line-4": lambda: line_query(4),
        "star-4": lambda: star_query(4),
        "wide": lambda: JoinQuery.from_spec("wide", _WIDE),
    }[name]()
    assert _retrieve_digest(query, grouping) == _RETRIEVE_PINNED[name, grouping]


class TestDerivedPlan:
    """The compiled plans and views are derived state, rebuilt on unpickling."""

    def test_plan_is_not_pickled(self, line3_query):
        dynamic = drive(
            line3_query, make_graph_stream(line3_query, make_edges(5, 14, seed=1), seed=2),
            check_batches=False,
        )
        state = dynamic.__getstate__()
        assert "trees" not in state and "_runs" not in state
        restored = pickle.loads(pickle.dumps(dynamic))
        assert set(vars(restored)) == set(vars(dynamic))
        for name, index in dynamic.trees.items():
            twin = restored.trees[name]
            for position in range(index.total_weight()):
                assert twin.retrieve_global(position) == index.retrieve_global(position)

    def test_families_pickle_as_plain_tuples(self):
        query = JoinQuery.from_spec("wide", _WIDE)
        index = DynamicJoinIndex(query, grouping=True, maintain_root=True)
        for relation, row in _random_rows(query, 300, 5, seed=7):
            index.insert(relation, row)
        payload = pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
        strings = {
            str(argument)
            for opcode, argument, _ in pickletools.genops(payload)
            if opcode.name in ("GLOBAL", "SHORT_BINUNICODE", "BINUNICODE")
        }
        assert "BucketFamily" not in " ".join(strings)
        assert "TreeIndex" not in strings
        restored = pickle.loads(payload)
        assert restored.families.keys() == index.families.keys()
        for edge, families in index.families.items():
            twins = restored.families[edge]
            assert families.keys() == twins.keys()
            for key, family in families.items():
                assert isinstance(twins[key], BucketFamily)
                assert twins[key].__getstate__() == family.__getstate__()
        rng, twin_rng = random.Random(1), random.Random(1)
        assert [restored.sample(twin_rng) for _ in range(50)] == [
            index.sample(rng) for _ in range(50)
        ]

    @pytest.mark.parametrize(
        "name", ["batch.checkpoint", "windowed.checkpoint", "grouped-turnstile.checkpoint"]
    )
    def test_fixture_checkpoints_restore_and_validate(self, name):
        # Each fixture's stream past the cut it was saved at.
        tails = {
            "batch.checkpoint": lambda: chain3_stream(232, seed=20)[32:],
            "windowed.checkpoint": lambda: windowed_fixture_stream()[192:],
            "grouped-turnstile.checkpoint": lambda: grouped_turnstile_stream()[256:],
        }
        resumed = BatchIngestor.restore(Path(__file__).parent / "data" / name)
        validate_index(resumed.sampler.index)
        resumed.ingest(tails[name]())
        assert resumed.sampler.index.size > 0
        validate_index(resumed.sampler.index)

    def test_grouped_turnstile_checkpoint_resumes_bit_for_bit(self):
        """A grouped turnstile checkpoint (saved after the first 256 items of
        :func:`grouped_turnstile_stream` in chunks of 16; recipe in
        ``tests/data/regenerate.py``) ingests the rest exactly as an
        unbroken run did: the digests were recorded by ingesting the whole
        stream unbroken."""
        path = Path(__file__).parent / "data" / "grouped-turnstile.checkpoint"
        resumed = BatchIngestor.restore(path)
        resumed.ingest(grouped_turnstile_stream()[256:])
        sampler = resumed.sampler
        assert _digest_of(sampler.sample) == (
            "a04f1ddbaf89edd416c0e16482745de9f8f64c88b5cc74367bbd74d198156dac"
        )
        assert _digest_of(sampler._rng.getstate()) == (
            "68457ab97b5189a6df76a27d685b04da03a69403f8c7aee84ed871f650426462"
        )
        assert sampler.statistics() == {
            "tuples_processed": 400,
            "duplicates_ignored": 127,
            "stored_tuples": 54,
            "simulated_stream_length": 2314,
            "items_examined": 318,
            "sample_size": 15,
            "propagations": 695,
            "deletes_applied": 146,
            "tombstones_pending": 0,
            "annihilations": 39,
            "evictions": 141,
            "refills": 124,
        }
        sampler.check_invariants()
        validate_index(sampler.index)


def grouped_turnstile_stream():
    """The stream ``tests/data/grouped-turnstile.checkpoint`` was cut from:
    ``wide`` inserts (``Rb`` groups on ``(w, y)``) with retractions."""
    rng = random.Random(41)
    query = JoinQuery.from_spec("wide", _WIDE)
    domains = {"x": 6, "y": 5, "z": 3, "w": 5, "u": 6}
    inserts = []
    for ts in range(1, 401):
        name = query.relation_names[rng.randrange(3)]
        row = tuple(rng.randrange(domains[attr]) for attr in _WIDE[name])
        inserts.append(StreamTuple(name, row, ts))
    return turnstile_stream(inserts, random.Random(42), delete_fraction=0.45, tombstone_fraction=0.1)


def _digest_of(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


# ---------------------------------------------------------------------- #
# One family dict per directed edge, shared by every rooting
# ---------------------------------------------------------------------- #
def _directed_edges(index):
    return {
        (parent, child)
        for child, neighbours in index._join_tree.adjacency.items()
        for parent in neighbours
    }


def _plans_by_node(view, tree):
    """``{node: plan}`` along one rooted view, whose rooted join tree is
    ``tree``; a plan's children are its node's children in the tree's
    order."""
    plans = {view.root: view._root_plan}
    for node in tree.topological_order():
        for child, (_, _, plan) in zip(tree.children_of(node), plans[node].children):
            plans[child] = plan
    return plans


class _RawIndex:
    """Stands in for DynamicJoinIndex to read its pickled state as is."""

    def __setstate__(self, state):
        self.state = state


class _RawUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        if name == "DynamicJoinIndex":
            return _RawIndex
        return super().find_class(module, name)


class TestEdgeStore:
    @pytest.mark.parametrize("name", ["line-4", "star-3", "Q10"])
    @pytest.mark.parametrize("grouping", [False, True])
    def test_every_rooting_reads_the_one_family_dict_of_an_edge(self, name, grouping):
        query = {"line-4": lambda: line_query(4), "star-3": lambda: star_query(3), "Q10": q10_query}[name]()
        index = DynamicJoinIndex(query, grouping=grouping, maintain_root=True)
        edges = _directed_edges(index)
        assert len(edges) == 2 * (len(query.relation_names) - 1)
        assert set(index.families) == edges | {(None, index.sampling_root)}
        read: dict = {}
        for root, tree in index.trees.items():
            assert not hasattr(tree, "_families")
            rooted = index._join_tree.rooted_at(root)
            for node, plan in _plans_by_node(tree, rooted).items():
                edge = (rooted.parent_of(node), node)
                read.setdefault(edge, set()).add(id(plan.families))
                assert plan.families is index.families.get(edge)
                if edge[0] is not None:
                    # One group view per relation, whichever rooting reads it.
                    assert plan.view is index._group_views[node]
        assert all(len(ids) == 1 for ids in read.values())
        assert set(read) == edges | {(None, name) for name in query.relation_names}

    @pytest.mark.parametrize("grouping", [False, True])
    def test_every_family_counts_its_buckets_after_inserts_and_deletes(self, grouping):
        query = JoinQuery.from_spec("wide", _WIDE)
        index = DynamicJoinIndex(query, grouping=grouping, maintain_root=True)
        rng = random.Random(17)
        live = []
        for relation, row in _random_rows(query, 600, 6, seed=18):
            if index.insert(relation, row):
                live.append((relation, row))
            if live and rng.random() < 0.3:
                assert index.delete(*live.pop(rng.randrange(len(live))))
        assert index.tuples_deleted > 0 and index.size > 0
        checked = 0
        for families in index.families.values():
            for family in families.values():
                assert family.weight_sum() == family.cnt > 0
                assert family.approx == next_pow2(family.cnt)
                checked += 1
        assert checked > 0
        index.check_invariants()

    def test_check_invariants_sees_a_broken_count(self, line3_query):
        index = DynamicJoinIndex(line3_query)
        index.insert_rows("R1", [(1, 2), (3, 2)])
        index.insert_rows("R2", [(2, 5)])
        family = next(iter(index.families["R2", "R1"].values()))
        family.cnt += 1
        with pytest.raises(RuntimeError, match="cnt mismatch"):
            index.check_invariants()

    def test_check_invariants_sees_a_wrong_position(self, line3_query):
        index = DynamicJoinIndex(line3_query)
        index.insert_rows("R1", [(1, 2), (3, 2)])
        index.insert_rows("R2", [(2, 5)])
        family = next(iter(index.families["R2", "R1"].values()))
        (items,) = family._buckets.values()
        assert len(items) == 2
        index.check_invariants()
        family._positions[items[0]] = 1
        with pytest.raises(RuntimeError, match="recorded position"):
            index.check_invariants()

    def test_check_invariants_sees_a_stale_position(self, line3_query):
        index = DynamicJoinIndex(line3_query)
        index.insert_rows("R1", [(1, 2)])
        index.insert_rows("R2", [(2, 5)])
        family = next(iter(index.families["R2", "R1"].values()))
        family._positions[(9, 2)] = 0
        with pytest.raises(RuntimeError, match="entity count"):
            index.check_invariants()

    def test_a_pickled_chain3_index_holds_each_edge_once(self):
        query = JoinQuery.from_spec("chain-3", _CHAIN3)
        sampler = ReservoirJoin(query, 30, rng=random.Random(1))
        rows = _random_rows(query, 900, 12, seed=2)
        for start in range(0, len(rows), 40):
            sampler.insert_batch(rows[start:start + 40])
        index = sampler.index
        payload = pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
        raw = _RawUnpickler(io.BytesIO(payload)).load().state
        # The families sit in one place, once per directed edge, and nothing
        # else the index pickles holds a family or a rooted view.
        assert set(raw) == {
            "query", "grouping", "maintain_root", "database", "_join_tree",
            "sampling_root", "families", "_group_views", "tuples_inserted",
            "duplicates_ignored", "tuples_deleted", "deletes_ignored", "propagations",
        }
        assert set(raw["families"]) == _directed_edges(index)
        for edge, families in raw["families"].items():
            assert families == {
                key: family.__getstate__() for key, family in index.families[edge].items()
            }
