"""Tests for batched reservoir sampling with a predicate (Algorithms 4/5)."""

import math
import random
from collections import Counter

import pytest

from repro.core.batch_reservoir import BatchedPredicateReservoir
from repro.core.skippable import ListBatch


def positive(item) -> bool:
    return item is not None and item >= 0


class TestBasics:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            BatchedPredicateReservoir(0)

    def test_single_batch_behaves_like_algorithm_one(self):
        items = [value if value % 3 else None for value in range(200)]
        sampler = BatchedPredicateReservoir(10, rng=random.Random(0))
        sampler.process_batch(ListBatch(items))
        assert len(sampler) == 10
        assert all(item is not None for item in sampler.sample)

    def test_empty_batches_are_noops(self):
        sampler = BatchedPredicateReservoir(5, rng=random.Random(0))
        for _ in range(10):
            sampler.process_batch(ListBatch([]))
        assert sampler.sample == []
        assert sampler.batches_processed == 10
        assert sampler.items_total == 0

    def test_dummy_only_batches_produce_nothing(self):
        sampler = BatchedPredicateReservoir(5, rng=random.Random(0))
        for _ in range(20):
            sampler.process_batch(ListBatch([None] * 7))
        assert sampler.sample == []
        assert sampler.items_total == 140

    def test_fill_phase_spans_batches(self):
        sampler = BatchedPredicateReservoir(6, rng=random.Random(0))
        sampler.process_batch(ListBatch([0, None, 1]))
        assert len(sampler) == 2
        sampler.process_batch(ListBatch([2, 3]))
        assert len(sampler) == 4
        sampler.process_batch(ListBatch([None, 4, 5, 6, 7]))
        assert len(sampler) == 6
        assert all(item in range(8) for item in sampler.sample)

    def test_skip_counter_carries_across_batches(self):
        # With many tiny batches the pending skip must repeatedly carry over;
        # the run must terminate and keep exactly k real items.
        sampler = BatchedPredicateReservoir(3, rng=random.Random(5))
        for value in range(3000):
            sampler.process_batch(ListBatch([value]))
        assert len(sampler) == 3
        assert sampler.items_total == 3000
        # Skipping must have avoided examining most positions.
        assert sampler.items_examined < 1500


class TestEquivalenceWithUnbatched:
    def test_same_distribution_as_algorithm_one(self):
        """Batched and unbatched samplers must have the same inclusion rates."""
        items = [value if value % 2 == 0 else None for value in range(60)]
        batches = [items[i:i + 7] for i in range(0, len(items), 7)]
        trials, k = 4000, 4
        batched_counts = Counter()
        plain_counts = Counter()
        for seed in range(trials):
            batched = BatchedPredicateReservoir(k, rng=random.Random(seed))
            for chunk in batches:
                batched.process_batch(ListBatch(chunk))
            batched_counts.update(item for item in batched.sample)
            plain = BatchedPredicateReservoir(k, rng=random.Random(seed + 7_000_001))
            plain.process_batch(ListBatch(items))
            plain_counts.update(item for item in plain.sample)
        real_items = [value for value in items if value is not None]
        expected = trials * k / len(real_items)
        for item in real_items:
            assert abs(batched_counts[item] - expected) < 5 * math.sqrt(expected) + 5
            assert abs(plain_counts[item] - expected) < 5 * math.sqrt(expected) + 5

    @pytest.mark.parametrize("seed", range(40))
    def test_any_cut_into_batches_gives_the_same_bits(self, seed):
        """Algorithm 1 over a stream is one batch; any cut of the stream into
        consecutive batches makes exactly the same draws."""
        rng = random.Random(seed)
        k = rng.randint(1, 12)
        items = [
            value if rng.random() < 0.3 else None
            for value in range(rng.randint(0, 40 * k))
        ]
        whole = BatchedPredicateReservoir(k, rng=random.Random(seed))
        whole.process_batch(ListBatch(items))
        cut = BatchedPredicateReservoir(k, rng=random.Random(seed))
        start = 0
        while start < len(items):
            end = start + rng.choice([1, 2, 3, 7, 50])
            cut.process_batch(ListBatch(items[start:end]))
            start = end
        assert cut.sample == whole.sample
        assert cut._rng.getstate() == whole._rng.getstate()
        for name in ("w", "items_total", "items_examined", "real_stops"):
            assert getattr(cut, name) == getattr(whole, name)
        assert cut._pending_skip == whole._pending_skip


class TestStatistics:
    def test_items_total_counts_dummies(self):
        sampler = BatchedPredicateReservoir(2, rng=random.Random(0))
        sampler.process_batch(ListBatch([1, None, 2, None]))
        assert sampler.items_total == 4
        assert sampler.real_stops >= 2


class TestProcessDeferredMany:
    """The fold over many batches against ``process_batch`` one batch at a
    time: sample, ``w``, pending skip and all four counters agree."""

    @staticmethod
    def fold_both(k, seed, sizes):
        """Fold ``sizes`` (batch ``i`` holds the consecutive integers from
        its offset) both ways; return the fold and the positions it
        retrieved, as ``(batch index, position)`` pairs."""
        offsets = [sum(sizes[:i]) for i in range(len(sizes))]
        calls = []

        def retrieve(index, position):
            calls.append((index, position))
            return offsets[index] + position

        many = BatchedPredicateReservoir(k, rng=random.Random(seed))
        many.process_deferred_many(sizes, retrieve, list(range(len(sizes))))
        single = BatchedPredicateReservoir(k, rng=random.Random(seed))
        for offset, size in zip(offsets, sizes):
            single.process_batch(ListBatch(range(offset, offset + size)))
        assert many.sample == single.sample
        assert many.snapshot_state() == single.snapshot_state()
        assert many._rng.getstate() == single._rng.getstate()
        assert many.items_examined == len(calls)
        return many, calls

    @pytest.mark.parametrize("count", [5, 200])
    def test_matches_per_batch_deferred(self, count):
        rng = random.Random(9)
        self.fold_both(7, 11, [rng.choice([0, 1, 2, 5, 40]) for _ in range(count)])

    @pytest.mark.parametrize("phase", ["fill", "skip"])
    def test_empty_batch(self, phase):
        sizes = [0, 3, 0, 0, 2, 0] if phase == "fill" else [10, 0, 200, 0, 0, 200, 0]
        many, _ = self.fold_both(6, 2, sizes)
        assert many.batches_processed == len(sizes)
        assert math.isinf(many.w) == (phase == "fill")

    def test_batch_spanning_fill_to_skip(self):
        # k = 5: the second batch fills the last two slots at its positions
        # 0 and 1, initialises w there, then skips through the rest.
        many, calls = self.fold_both(5, 4, [3, 400, 50])
        in_second = [position for index, position in calls if index == 1]
        assert in_second[:2] == [0, 1]
        assert len(in_second) > 2
        assert not math.isinf(many.w)

    def test_stop_on_last_position(self):
        # With the reservoir full, a batch one longer than the pending skip
        # has its only stop on its last position; the skip drawn there runs
        # on into the next batch.
        reservoir = BatchedPredicateReservoir(3, rng=random.Random(6))
        reservoir.process_batch(ListBatch(range(3)))
        pending = reservoir._pending_skip
        many, calls = self.fold_both(3, 6, [3, pending + 1, 60, 60])
        assert (1, pending) in calls
        assert [position for index, position in calls if index == 1] == [pending]

    @pytest.mark.parametrize("count", [3, 32])
    def test_astronomic_sizes_skip_wholesale(self, count):
        reservoir = BatchedPredicateReservoir(2, rng=random.Random(3))
        while math.isinf(reservoir._w):  # fill the sample so skips apply
            reservoir.process_batch(ListBatch([1, 2]))

        def must_not_retrieve(arg, position):  # pragma: no cover - the point is it never runs
            raise AssertionError("a batch skipped whole must never be retrieved from")

        # Delta sizes are products of approximate counters, so they can
        # exceed any machine word; Python ints carry them through the same
        # wholesale-skip arithmetic as small sizes.
        sizes = [2 ** 80] * count
        total_before = reservoir.items_total
        batches_before = reservoir.batches_processed
        reservoir._pending_skip = sum(sizes) + 5
        reservoir.process_deferred_many(sizes, must_not_retrieve, sizes)
        assert reservoir.items_total == total_before + sum(sizes)
        assert reservoir.batches_processed == batches_before + len(sizes)
        assert reservoir._pending_skip == 5

    @pytest.mark.parametrize("count", [3, 32])
    def test_negative_size_raises_before_mutation(self, count):
        reservoir = BatchedPredicateReservoir(2, rng=random.Random(3))
        sizes = [1] * count + [-1]
        with pytest.raises(ValueError):
            reservoir.process_deferred_many(sizes, lambda _arg, position: position, sizes)
        assert reservoir.items_total == 0
        assert reservoir.batches_processed == 0
