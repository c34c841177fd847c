"""Tests for the per-rooted-tree dynamic index (Algorithms 7/8/9)."""

import hashlib
import pickle
import pickletools
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.core.backend import restore_backend
from repro.core.reservoir_join import ReservoirJoin
from repro.core.turnstile import TurnstileReservoirJoin
from repro.index.buckets import BucketFamily
from repro.index.dynamic_index import DynamicJoinIndex
from repro.index.tree_index import TreeIndex
from repro.ingest.batch import BatchIngestor
from repro.ingest.checkpoint import CODEC
from repro.ingest.shard import ShardedIngestor
from repro.relational import Database, JoinQuery, delta_results
from repro.relational.jointree import JoinTree
from repro.relational.stream import StreamDelete, StreamTuple
from repro.workloads.graph import line_query, star_query

from tests.conftest import make_edges, make_graph_stream, materialize_batch
from tests.density import batch_density_bound
from tests.oracles import result_key
from tests.test_checkpoint import chain3_stream


def build_indexes(query, grouping=False):
    """One TreeIndex per rooting over a single shared database."""
    database = Database(query)
    tree = JoinTree(query)
    indexes = {
        name: TreeIndex(tree.rooted_at(name), database, grouping=grouping)
        for name in query.relation_names
    }
    return database, indexes


def drive(query, stream, grouping=False, check_batches=True):
    """Replay a stream through all rooted trees, checking delta batches.

    For every inserted tuple the real items of the batch generated by the
    tree rooted at the tuple's relation must equal the ground-truth delta
    query results.
    """
    database, indexes = build_indexes(query, grouping)
    for item in stream:
        if not database.insert(item.relation, item.row):
            continue
        for index in indexes.values():
            index.insert_row(item.relation, item.row)
        if not check_batches:
            continue
        batch = indexes[item.relation].delta_batch(item.row)
        got = Counter(result_key(res) for res in materialize_batch(batch))
        expected = Counter(
            result_key(res)
            for res in delta_results(query, database, item.relation, item.row)
        )
        assert got == expected, f"batch mismatch after inserting {item}"
    return database, indexes


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
        _, indexes = drive(line3_query, stream, check_batches=False)
        for index in indexes.values():
            index.validate()

    def test_validate_with_grouping(self):
        query = star_query(4)
        edges = make_edges(4, 12, seed=23)
        stream = make_graph_stream(query, edges, seed=24)
        _, indexes = drive(query, stream, grouping=True, check_batches=False)
        for index in indexes.values():
            index.validate()

    def test_batch_density_meets_bound(self, line3_query):
        edges = make_edges(5, 15, seed=31)
        stream = make_graph_stream(line3_query, edges, seed=32)
        database, indexes = build_indexes(line3_query)
        for item in stream:
            if not database.insert(item.relation, item.row):
                continue
            for index in indexes.values():
                index.insert_row(item.relation, item.row)
            index = indexes[item.relation]
            size = index.delta_batch_size(item.row)
            if size == 0:
                continue
            real = len(materialize_batch(index.delta_batch(item.row)))
            subtree = index.tree.subtree_size(index.root)
            bound = batch_density_bound(subtree, full_tuple=True)
            assert real >= bound * size - 1e-9

    def test_requires_empty_database(self, line3_query):
        database = Database(line3_query)
        database.insert("R1", (1, 2))
        tree = JoinTree(line3_query).rooted_at("R1")
        with pytest.raises(ValueError):
            TreeIndex(tree, database)

    def test_propagation_counter_grows(self, line3_query):
        edges = make_edges(5, 15, seed=41)
        stream = make_graph_stream(line3_query, edges, seed=42)
        _, indexes = drive(line3_query, stream, check_batches=False)
        assert sum(index.propagations for index in indexes.values()) > 0


class TestFullQuerySampling:
    def test_total_weight_brackets_true_size(self, line3_query):
        from repro.relational import join_size

        edges = make_edges(5, 16, seed=51)
        stream = make_graph_stream(line3_query, edges, seed=52)
        database, indexes = drive(line3_query, stream, check_batches=False)
        truth = join_size(line3_query, database)
        for index in indexes.values():
            total = index.total_weight()
            assert total >= truth
            # |J| = O(|Q(R)|): the constant for line-3 is at most 2^(2*3-1).
            assert truth == 0 or total <= (2 ** 5) * truth

    def test_samples_are_real_results(self, line3_query):
        from repro.relational import join_results

        edges = make_edges(5, 16, seed=53)
        stream = make_graph_stream(line3_query, edges, seed=54)
        database, indexes = drive(line3_query, stream, check_batches=False)
        real = {result_key(res) for res in join_results(line3_query, database)}
        rng = random.Random(0)
        index = indexes["R1"]
        for _ in range(50):
            sample = index.sample(rng)
            assert result_key(sample) in real

    def test_sample_none_when_empty(self, line3_query):
        _, indexes = build_indexes(line3_query)
        assert indexes["R1"].sample(random.Random(0)) is None

    def test_root_family_disabled(self, line3_query):
        database = Database(line3_query)
        tree = JoinTree(line3_query).rooted_at("R1")
        index = TreeIndex(tree, database, maintain_root=False)
        database.insert("R1", (1, 2))
        index.insert_row("R1", (1, 2))
        with pytest.raises(RuntimeError):
            index.total_weight()

    def test_sampling_uniform_over_results(self, two_table_query):
        """Full-join sampling hits every result with roughly equal frequency."""
        from repro.relational import join_results

        database, indexes = build_indexes(two_table_query)
        rows = {"R1": [(i, i % 3) for i in range(6)], "R2": [(j % 3, j) for j in range(6)]}
        for relation, relation_rows in rows.items():
            for row in relation_rows:
                database.insert(relation, row)
                for index in indexes.values():
                    index.insert_row(relation, row)
        results = join_results(two_table_query, database)
        universe = {result_key(res) for res in results}
        rng = random.Random(7)
        counts = Counter(result_key(indexes["R1"].sample(rng)) for _ in range(4000))
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
        database = Database(query)
        index = TreeIndex(JoinTree(query).rooted_at(query.relation_names[0]), database)
        for relation, rows in by_relation.items():
            for start in range(0, len(rows), chunk):
                for row in rows[start:start + chunk]:
                    database.insert(relation, row)
                if chunk == 1:
                    index.insert_row(relation, rows[start])
                else:
                    index.insert_rows(relation, rows[start:start + chunk])
        state = {
            node: {key: family_state(family) for key, family in families.items()}
            for node, families in index._families.items()
        }
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
    sample = index.sample_many(200, random.Random(8))
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

    One ``TreeIndex`` per rooting over a database that has seen inserts and
    deletes, so families hold several buckets, some emptied and re-created.
    """
    database, indexes = build_indexes(query, grouping)
    rng = random.Random(12)
    names = query.relation_names
    live = []
    for i in range(240):
        name = names[i % len(names)]
        row = tuple(rng.randrange(8) for _ in range(query.relation(name).arity))
        if database.insert(name, row):
            live.append((name, row))
            for index in indexes.values():
                index.insert_row(name, row)
        if live and rng.random() < 0.2:
            name, row = live.pop(rng.randrange(len(live)))
            database.delete(name, row)
            for index in indexes.values():
                index.delete_row(name, row)
    found = []
    for index in indexes.values():
        for row in list(database[index.root].rows):
            batch = index.delta_batch(row)
            found.append([batch.skip(0) for _ in range(len(batch))])
        found.append([index.retrieve_global(z) for z in range(index.total_weight())])
    payload = repr([[None if r is None else list(r.items()) for r in run] for run in found])
    return hashlib.sha256(payload.encode()).hexdigest()


# Recorded with the recursive Retrieve, before families kept their buckets
# in exponent order.  Binary line and star relations leave no attribute to
# group on, so their grouped digests equal the ungrouped ones; ``wide`` has
# grouped interior nodes.
_RETRIEVE_PINNED = {
    ("line-4", False): "6534b3665a3f35badb9672eafc1f87da1f058771721cec2b37c4a233909faee0",
    ("line-4", True): "6534b3665a3f35badb9672eafc1f87da1f058771721cec2b37c4a233909faee0",
    ("star-4", False): "0c44c0869bf9942db96169f41159f3b9a41230cf8f3ab375295943d6242ffa9e",
    ("star-4", True): "0c44c0869bf9942db96169f41159f3b9a41230cf8f3ab375295943d6242ffa9e",
    ("wide", False): "bf1819cf7876bd7c6d1553f374818b142d3ce3f91d84b7c07c447165024b3e1b",
    ("wide", True): "bb95f2fd593a967bec4ad46ba1ef0a06045b8c5e0716f75ae4bec93fbf7de64b",
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
    """The compiled per-node plan is derived state, rebuilt on unpickling."""

    def test_plan_is_not_pickled(self, line3_query):
        _, indexes = drive(
            line3_query, make_graph_stream(line3_query, make_edges(5, 14, seed=1), seed=2),
            check_batches=False,
        )
        for index in indexes.values():
            assert "_plan" not in index.__getstate__()
            restored = pickle.loads(pickle.dumps(index))
            assert set(vars(restored)) == set(vars(index))
            for position in range(index.total_weight()):
                assert restored.retrieve_global(position) == index.retrieve_global(position)

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
        assert "TreeIndex" in strings
        restored = pickle.loads(payload)
        for tree, twin in zip(index.trees.values(), restored.trees.values()):
            for families, twins in zip(tree._families.values(), twin._families.values()):
                assert families.keys() == twins.keys()
                for key, family in families.items():
                    assert isinstance(twins[key], BucketFamily)
                    assert twins[key].__getstate__() == family.__getstate__()
        assert restored.sample_many(50, random.Random(1)) == index.sample_many(
            50, random.Random(1)
        )

    @pytest.mark.parametrize(
        "name",
        [
            "async.checkpoint",
            "batch.checkpoint",
            "batch-families.checkpoint",
            "sharded-pool.checkpoint",
        ],
    )
    def test_legacy_checkpoints_restore_and_validate(self, name):
        path = Path(__file__).parent / "data" / name
        # Each checkpoint holds the first 32 tuples of this stream.
        tail = chain3_stream(232, seed=20)[32:]
        if name.startswith("batch"):
            samplers = [BatchIngestor.restore(path).ingest(tail).sampler]
        elif name == "async.checkpoint":
            # A retired kind: its nested sharded target restores on its own.
            target = restore_backend(CODEC.load(path)["state"]["target"])
            samplers = target.ingest(tail).samplers
        else:
            samplers = ShardedIngestor.restore(path).ingest(tail).samplers
        for sampler in samplers:
            assert sampler.index.size > 0
            sampler.index.validate()
