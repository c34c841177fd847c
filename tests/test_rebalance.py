"""Tests for skew-aware shard rebalancing (``repro.ingest.rebalance``).

Covers the skew monitor's trigger behaviour (a Zipf-skewed stream fires, a
uniform stream never does), the delivery-window planner, the replay's
exact-result-set preservation, the critical-path accounting, and the
documented error behaviour.  The distributional property (post-rebalance
``merged_sample`` stays chi-square uniform) lives in ``tests/statistical/``.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    JoinQuery,
    RebalancingIngestor,
    ShardedIngestor,
    SkewMonitor,
    StreamTuple,
)
from repro.ingest.rebalance import (
    RebalancePlan,
    plan_partition,
    simulate_partition,
)
from repro.ingest.shard import stable_shard_hash
from repro.stats.uniformity import result_key

from tests.conftest import ground_truth_keys


def skewed_stream(n, seed, hot_share=0.7, domain=64, wide=1000):
    """Chain-3 stream whose ``x2`` values concentrate on one hot value."""
    rng = random.Random(seed)
    stream = []
    for i in range(n):
        relation = ("R1", "R2", "R3")[i % 3]
        hot = 0 if rng.random() < hot_share else rng.randrange(1, domain)
        if relation == "R1":
            row = (rng.randrange(wide), hot)
        elif relation == "R2":
            row = (hot, rng.randrange(domain))
        else:
            row = (rng.randrange(domain), rng.randrange(wide))
        stream.append(StreamTuple(relation, row))
    return stream


def uniform_stream(n, seed, domain=500):
    rng = random.Random(seed)
    return [
        StreamTuple(
            ("R1", "R2", "R3")[i % 3], (rng.randrange(domain), rng.randrange(domain))
        )
        for i in range(n)
    ]


def make_rebalancing(query, k=40, seed=3, threshold=1.3, min_tuples=1000, **kwargs):
    return RebalancingIngestor(
        query,
        k=k,
        num_shards=4,
        chunk_size=512,
        monitor=SkewMonitor(threshold=threshold, min_tuples=min_tuples),
        rng=random.Random(seed),
        **kwargs,
    )


# ---------------------------------------------------------------------- #
# Monitor and trigger behaviour
# ---------------------------------------------------------------------- #
class TestTrigger:
    def test_skewed_stream_triggers_a_rebalance(self, line3_query):
        ingestor = make_rebalancing(line3_query)
        ingestor.ingest(skewed_stream(4000, seed=1))
        assert len(ingestor.rebalances) >= 1
        event = ingestor.rebalances[0]
        assert event.old_attr == "x2"  # the skewed default choice
        assert event.new_attr != "x2"
        assert event.observed_imbalance >= 1.3
        assert event.predicted_imbalance < event.observed_imbalance
        # The new partitioning actually runs cooler.
        assert ingestor.inner.load_imbalance() < event.observed_imbalance

    def test_uniform_stream_never_triggers(self, line3_query):
        ingestor = make_rebalancing(line3_query, threshold=1.5)
        ingestor.ingest(uniform_stream(4000, seed=2))
        assert ingestor.rebalances == []
        assert ingestor.partition_attr == "x2"

    def test_min_tuples_holds_early_noise_back(self, line3_query):
        monitor = SkewMonitor(threshold=1.3, min_tuples=10_000)
        ingestor = RebalancingIngestor(
            line3_query, k=10, num_shards=4, chunk_size=512,
            monitor=monitor, rng=random.Random(0),
        )
        ingestor.ingest(skewed_stream(4000, seed=3))
        assert ingestor.rebalances == []
        report = ingestor.skew_report()
        assert report.imbalance >= 1.3 and not report.triggered

    def test_monitor_report_fields(self, line3_query):
        ingestor = make_rebalancing(line3_query)
        ingestor.ingest_batch(skewed_stream(512, seed=4))
        report = ingestor.skew_report()
        assert len(report.shard_loads) == 4
        assert report.hot_shard == max(range(4), key=report.shard_loads.__getitem__)
        assert report.threshold == 1.3

    def test_monitor_validation(self):
        with pytest.raises(ValueError):
            SkewMonitor(threshold=1.0)
        with pytest.raises(ValueError):
            SkewMonitor(min_tuples=-1)
        with pytest.raises(ValueError):
            SkewMonitor(cooldown_chunks=-1)


# ---------------------------------------------------------------------- #
# Planning
# ---------------------------------------------------------------------- #
class TestPlanning:
    def test_planner_prefers_the_uniform_attribute(self, line3_query):
        # All the delivered weight hits x2=0; x3 is spread out.
        deliveries = []
        rng = random.Random(5)
        for _ in range(600):
            deliveries.append(("R2", (0, rng.randrange(64))))
        plan = plan_partition(line3_query, deliveries, shard_counts=(4,))
        assert plan.partition_attr == "x3"
        assert plan.predicted_imbalance < 2.0
        hot = simulate_partition(line3_query, deliveries, "x2", 4)
        assert hot.predicted_imbalance == pytest.approx(4.0)  # one value, one shard

    def test_simulation_counts_broadcast_on_every_shard(self, line3_query):
        deliveries = [("R3", (1, 2)), ("R3", (3, 4))]
        plan = simulate_partition(line3_query, deliveries, "x2", 3)
        assert plan.predicted_loads == (2, 2, 2)
        assert plan.total_load == 6
        assert plan.predicted_imbalance == 1.0

    def test_split_separates_colliding_values(self, line3_query):
        # Two values that collide at 2 shards but separate at 4.
        values = [v for v in range(100)
                  if stable_shard_hash((v,)) % 2 == 0]
        v1 = next(v for v in values if stable_shard_hash((v,)) % 4 == 0)
        v2 = next(v for v in values if stable_shard_hash((v,)) % 4 == 2)
        deliveries = [("R2", (v, i)) for i, v in enumerate([v1, v2] * 200)]
        two = simulate_partition(line3_query, deliveries, "x2", 2)
        four = simulate_partition(line3_query, deliveries, "x2", 4)
        assert two.max_load == 400  # both values on one shard
        assert four.max_load == 200  # split apart
        plan = plan_partition(
            line3_query, deliveries, candidate_attrs=["x2"], shard_counts=(2, 4)
        )
        assert plan.num_shards == 4

    def test_empty_candidates_fall_back_to_every_attribute(self, line3_query):
        deliveries = [("R2", (0, i)) for i in range(64)]
        explicit = plan_partition(
            line3_query, deliveries, candidate_attrs=line3_query.output_attrs()
        )
        assert plan_partition(line3_query, deliveries, candidate_attrs=[]) == explicit
        assert plan_partition(line3_query, deliveries) == explicit

    def test_plan_is_deterministic(self, line3_query):
        deliveries = skewed_stream(900, seed=6)
        a = plan_partition(line3_query, deliveries, shard_counts=(4,))
        b = plan_partition(line3_query, deliveries, shard_counts=(4,))
        assert a == b == RebalancePlan(a.partition_attr, 4, a.predicted_loads)


# ---------------------------------------------------------------------- #
# The replay invariant
# ---------------------------------------------------------------------- #
class TestReplay:
    def test_rebalance_preserves_the_exact_result_set(self, line3_query):
        stream = skewed_stream(3000, seed=7, domain=5, wide=12)
        truth = ground_truth_keys(line3_query, stream)
        assert len(truth) > 10
        ingestor = make_rebalancing(line3_query, k=len(truth) + 5, seed=8)
        ingestor.ingest(stream)
        assert ingestor.rebalances  # the skew must actually fire here
        assert ingestor.total_results() == len(truth)
        assert {result_key(r) for r in ingestor.merged_sample()} == truth

    def test_stored_rows_reassemble_the_global_state(self, line3_query):
        stream = skewed_stream(1500, seed=9, domain=5, wide=12)
        sharded = ShardedIngestor(
            line3_query, k=10, num_shards=3, chunk_size=128, rng=random.Random(1)
        )
        sharded.ingest(stream)
        stored = sharded.stored_rows()
        for relation in line3_query.relation_names:
            expected = {item.row for item in stream if item.relation == relation}
            assert set(stored[relation]) == expected
            assert len(stored[relation]) == len(expected)  # partition-disjoint

    def test_forced_rebalance_to_explicit_partitioning(self, line3_query):
        ingestor = make_rebalancing(line3_query, min_tuples=10**9)  # never auto
        ingestor.ingest(skewed_stream(2000, seed=10))
        assert ingestor.rebalances == []
        before = ingestor.total_results()
        event = ingestor.rebalance(partition_attr="x3", num_shards=8)
        assert (ingestor.partition_attr, ingestor.num_shards) == ("x3", 8)
        assert event.replayed_tuples == sum(
            len(rows) for rows in ingestor.inner.stored_rows().values()
        )
        assert ingestor.total_results() == before

    def test_counters_survive_a_rebalance(self, line3_query):
        stream = skewed_stream(3000, seed=11)
        ingestor = make_rebalancing(line3_query)
        ingestor.ingest(stream)
        assert ingestor.rebalances
        stats = ingestor.statistics()
        # Wrapper counters speak about the *stream*, not the replay.
        assert stats["tuples_ingested"] == 3000
        assert stats["batches_ingested"] == -(-3000 // 512)
        assert stats["rebalances"] == len(ingestor.rebalances)
        assert stats["replayed_tuples"] == sum(
            e.replayed_tuples for e in ingestor.rebalances
        )
        assert stats["critical_path_seconds"] > 0
        assert stats["planning_window_tuples"] <= 8192
        # Scalar timings are cumulative across generations.
        assert stats["partition_seconds"] >= ingestor.inner.partition_seconds
        assert stats["partition_seconds"] > 0
        # The critical path includes every retired generation plus overheads.
        assert ingestor.critical_path_seconds >= (
            ingestor.inner.critical_path_seconds + ingestor.rebalance_seconds
        )

    def test_cooldown_limits_rebalance_rate(self, line3_query):
        monitor = SkewMonitor(threshold=1.01, min_tuples=0, cooldown_chunks=10**9)
        ingestor = RebalancingIngestor(
            line3_query, k=10, num_shards=4, chunk_size=128,
            monitor=monitor, rng=random.Random(12), improvement_factor=1.0,
        )
        ingestor.ingest(skewed_stream(4000, seed=13))
        # With an infinite cooldown only the very first trigger may plan.
        assert ingestor.plans_attempted == 1
        assert len(ingestor.rebalances) <= 1

    def test_rejected_plans_also_start_the_cooldown(self, line3_query):
        # improvement_factor so strict that no plan is ever adopted: the
        # O(window) simulation must still back off to one per cooldown.
        monitor = SkewMonitor(threshold=1.01, min_tuples=0, cooldown_chunks=10**9)
        ingestor = RebalancingIngestor(
            line3_query, k=10, num_shards=4, chunk_size=128,
            monitor=monitor, rng=random.Random(12), improvement_factor=0.0001,
        )
        ingestor.ingest(skewed_stream(4000, seed=13))
        assert ingestor.rebalances == []
        assert ingestor.plans_attempted == 1
        assert ingestor.statistics()["plans_attempted"] == 1

    def test_min_tuples_counts_the_stream_not_the_replay(self, line3_query):
        # After a rebalance the inner generation's counter restarts at the
        # replayed row count; the monitor must keep seeing the cumulative
        # stream figure through skew_report().
        ingestor = make_rebalancing(line3_query)
        stream = skewed_stream(3000, seed=1)
        ingestor.ingest(stream)
        assert ingestor.rebalances
        assert ingestor.tuples_ingested == 3000
        assert ingestor.inner.tuples_ingested != 3000  # replay included
        report = ingestor.skew_report()
        # 3000 >= min_tuples=1000: the guard is satisfied by stream volume
        # regardless of what the current generation's counter says.
        assert (report.imbalance >= 1.3) == report.triggered


# ---------------------------------------------------------------------- #
# Validation and errors
# ---------------------------------------------------------------------- #
class TestValidation:
    def test_constructor_validation(self, line3_query):
        with pytest.raises(ValueError):
            RebalancingIngestor(line3_query, k=5, improvement_factor=0.0)
        with pytest.raises(ValueError):
            RebalancingIngestor(line3_query, k=5, improvement_factor=1.5)
        with pytest.raises(ValueError):
            RebalancingIngestor(line3_query, k=5, num_shards=4, max_shards=2)
        with pytest.raises(ValueError):
            RebalancingIngestor(line3_query, k=5, window_tuples=0)

    def test_bad_batch_leaves_state_untouched(self, line3_query):
        ingestor = make_rebalancing(line3_query)
        ingestor.ingest_batch([("R1", (1, 2))])
        with pytest.raises(KeyError):
            ingestor.ingest_batch([("R2", (2, 3)), ("NOPE", (0, 0))])
        assert ingestor.tuples_ingested == 1

    def test_stored_rows_unavailable_after_parallel(self, line3_query):
        sharded = ShardedIngestor(
            line3_query, k=5, num_shards=2, rng=random.Random(0)
        )
        sharded.ingest_parallel(uniform_stream(50, seed=14))
        with pytest.raises(RuntimeError):
            sharded.stored_rows()

    def test_empty_batch_is_noop(self, line3_query):
        ingestor = make_rebalancing(line3_query)
        assert ingestor.ingest_batch([]) == 0
        assert ingestor.batches_ingested == 0


# ---------------------------------------------------------------------- #
# Recorded delivery routing (reused during planning)
# ---------------------------------------------------------------------- #
class TestRecordedRouting:
    """The planner reuses delivery-time shard assignments; output is pinned
    to what re-hashing the whole window produces."""

    def test_window_entries_carry_recorded_shards(self, line3_query):
        ingestor = make_rebalancing(line3_query)
        ingestor.ingest(uniform_stream(1200, seed=21))
        assert len(ingestor._window) == 1200
        assert all(shard is not None for _, _, shard in ingestor._window)
        for relation, row, shard in list(ingestor._window)[:200]:
            expected = ingestor.inner.shard_of(relation, row)
            assert shard == (-1 if expected is None else expected)

    def test_plan_is_identical_with_and_without_records(self, line3_query):
        from collections import deque

        ingestor = make_rebalancing(line3_query)
        ingestor.ingest(skewed_stream(3000, seed=22))
        recorded_best, recorded_current = ingestor.plan()
        # Strip every record: the planner must re-hash the window through
        # the same routing rule and land on the exact same plans.
        ingestor._window = deque(
            ((relation, row, None) for relation, row, _ in ingestor._window),
            maxlen=ingestor._window.maxlen,
        )
        rehashed_best, rehashed_current = ingestor.plan()
        assert recorded_best == rehashed_best
        assert recorded_current == rehashed_current

    def test_rebalance_invalidates_stale_records(self, line3_query):
        ingestor = make_rebalancing(line3_query, min_tuples=500, threshold=1.1)
        ingestor.ingest(skewed_stream(4000, seed=23))
        assert len(ingestor.rebalances) >= 1
        # Every record in the window was re-validated or re-hashed against
        # the *new* partitioning: the current plan must equal a from-scratch
        # simulation under the adopted attribute.
        _, current = ingestor.plan()
        scratch = plan_partition(
            ingestor.query,
            ingestor._window_pairs(),
            (ingestor.partition_attr,),
            (ingestor.num_shards,),
        )
        assert current == scratch

    def test_snapshot_restores_legacy_pair_windows(self, line3_query):
        ingestor = make_rebalancing(line3_query)
        ingestor.ingest(uniform_stream(900, seed=24))
        reference = ingestor.plan()
        state = ingestor.snapshot_state()
        # Legacy snapshots stored (relation, row) pairs without a shard.
        state["window"] = [(relation, row) for relation, row, _ in state["window"]]
        restored = RebalancingIngestor.from_snapshot(state)
        assert restored.plan() == reference
