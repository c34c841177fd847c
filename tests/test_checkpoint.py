"""Checkpoint/restore: codec round-trips, failure modes, resumption guards.

The statistical half of the story — bit-identical resumption for every
backend kind — lives in property-harness section (e) of
``tests/statistical/test_properties.py``.  This module covers the
deterministic seam: the file format (truncation, corruption, version and
kind mismatches, the refused version-1 file), the committed batch fixture,
and native versus pickled backend snapshots.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random
from pathlib import Path
from typing import List

import pytest

from repro import (
    BatchIngestor,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointVersionError,
    CyclicReservoirJoin,
    JoinQuery,
    ReservoirJoin,
    StreamTuple,
)
from repro.core.backend import restore_backend, snapshot_backend
from repro.baselines.sjoin import SJoin
from repro.ingest.checkpoint import CODEC, FORMAT_VERSION, MAGIC, CheckpointCodec

from tests.oracles import validate_index


#: The committed checkpoint fixtures.  Each is a ``BatchIngestor``
#: (``chunk_size=16``) saved at a chunk boundary; ``tests/data/regenerate.py``
#: writes them and ``tests/test_fixtures.py`` checks them against it:
#: ``batch`` holds the first 32 tuples of ``chain3_stream(60, seed=20)`` in
#: ``ReservoirJoin(chain3(), 6, rng=Random(21))``; ``windowed`` the first 192
#: items of ``windowed_fixture_stream()`` in ``WindowedSampler(TWO, k=12,
#: window=40, mode="timestamp", rng=Random(93))`` (``tests/test_turnstile.py``);
#: ``grouped-turnstile`` the first 256 items of ``grouped_turnstile_stream()``
#: in ``TurnstileReservoirJoin(wide, 15, grouping=True, rng=Random(43))``
#: (``tests/test_tree_index.py``).  ``version-1.checkpoint`` has no recipe: a
#: predicate-reservoir file of the retired version 1, which is refused.
FIXTURES = Path(__file__).parent / "data"


def chain3() -> JoinQuery:
    return JoinQuery.from_spec(
        "chain-3", {"R1": ["x1", "x2"], "R2": ["x2", "x3"], "R3": ["x3", "x4"]}
    )


def chain3_stream(n: int, seed: int = 5, domain: int = 12) -> List[StreamTuple]:
    rng = random.Random(seed)
    return [
        StreamTuple(
            ("R1", "R2", "R3")[i % 3], (rng.randrange(domain), rng.randrange(domain))
        )
        for i in range(n)
    ]


# --------------------------------------------------------------------- #
# Codec round-trip and file-format failure modes
# --------------------------------------------------------------------- #
class TestCodec:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.ckpt"
        CODEC.dump(path, "batch", {"answer": 42})
        document = CODEC.load(path)
        assert document["kind"] == "batch"
        assert document["state"] == {"answer": 42}

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CODEC.load(tmp_path / "nope.ckpt")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"definitely not a checkpoint, but long enough to read")
        with pytest.raises(CheckpointCorruptError, match="bad magic"):
            CODEC.load(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.ckpt"
        CODEC.dump(path, "batch", {"answer": 42})
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CheckpointCorruptError, match="shorter than"):
            CODEC.load(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.ckpt"
        CODEC.dump(path, "batch", {"answer": 42})
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            CODEC.load(path)

    def test_corrupt_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "x.ckpt"
        CODEC.dump(path, "batch", {"answer": 42})
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload bit; length still matches
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            CODEC.load(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "x.ckpt"
        CheckpointCodec(version=FORMAT_VERSION + 7).dump(path, "batch", {})
        with pytest.raises(CheckpointVersionError, match=str(FORMAT_VERSION + 7)):
            CODEC.load(path)

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "x.ckpt"
        CODEC.dump(path, "batch", {})
        with pytest.raises(CheckpointMismatchError, match="'batch'"):
            CODEC.load(path, expected_kind="other")

    def test_all_errors_are_checkpoint_errors(self):
        for cls in (CheckpointCorruptError, CheckpointVersionError, CheckpointMismatchError):
            assert issubclass(cls, CheckpointError)

    def test_magic_is_stable(self, tmp_path):
        # The on-disk format is a public contract: the first 8 bytes never
        # change, or old files stop being recognisable as checkpoints.
        path = tmp_path / "x.ckpt"
        CODEC.dump(path, "batch", {})
        assert path.read_bytes()[:8] == MAGIC == b"RPROCKPT"


# --------------------------------------------------------------------- #
# Ingestor-level restore guards
# --------------------------------------------------------------------- #
class TestRestoreGuards:
    def test_version_1_file_is_refused(self):
        # A file of the retired version 1 (a predicate reservoir saved before
        # it carried its pending skip across chunks) is refused before
        # anything is unpickled, by the codec and by the ingestor alike.
        path = FIXTURES / "version-1.checkpoint"
        assert path.read_bytes()[len(MAGIC):len(MAGIC) + 4] == (1).to_bytes(4, "big")
        for load in (CODEC.load, BatchIngestor.restore):
            with pytest.raises(CheckpointVersionError, match="version 1 is not supported"):
                load(path)

    def test_batch_checkpoint_restores_and_resumes(self):
        stream = chain3_stream(60, seed=20)
        uninterrupted = BatchIngestor(
            ReservoirJoin(chain3(), 6, rng=random.Random(21)), chunk_size=16
        ).ingest(stream)
        resumed = BatchIngestor.restore(FIXTURES / "batch.checkpoint")
        resumed.ingest(stream[32:])
        assert resumed.sampler.sample == uninterrupted.sampler.sample
        assert resumed.statistics() == uninterrupted.statistics()
        validate_index(resumed.sampler.index)

    @pytest.mark.parametrize("ingestor_cls", [BatchIngestor])
    def test_retired_rebalancing_kind_is_rejected(self, tmp_path, ingestor_cls):
        # Every retired ingestion mode's kind: rebalancing, fan-out, async
        # and sharded.
        for kind in ("rebalancing", "fanout", "async", "sharded"):
            path = tmp_path / f"{kind}.ckpt"
            CODEC.dump(path, kind, {})
            with pytest.raises(CheckpointMismatchError, match=kind):
                ingestor_cls.restore(path)

    @pytest.mark.parametrize("codec", ["native", "pickle"])
    def test_nested_backend_of_a_retired_class_is_a_mismatch(self, tmp_path, codec):
        # A batch checkpoint whose backend names a module or class this
        # version no longer has fails as a checkpoint mismatch naming it.
        path = tmp_path / "a.ckpt"
        state = BatchIngestor(
            ReservoirJoin(chain3(), 4, rng=random.Random(22))
        ).snapshot_state()
        for retired in (
            "repro.ingest.rebalance:RebalancingIngestor",
            "repro.ingest.batch:RetiredIngestor",
        ):
            module, _, name = retired.partition(":")
            # A pickle that names the class (the GLOBAL opcode), as a
            # whole-object pickle of an instance would.
            payload = f"c{module}\n{name}\n.".encode() if codec == "pickle" else {}
            state["backend"] = {"codec": codec, "class": retired, "state": payload}
            CODEC.dump(path, "batch", state)
            with pytest.raises(CheckpointMismatchError, match=retired):
                BatchIngestor.restore(path)

    def test_sampler_restore_state_requires_fresh_sampler(self):
        query = chain3()
        sampler = ReservoirJoin(query, 4, rng=random.Random(3))
        for item in chain3_stream(30):
            sampler.insert(item.relation, item.row)
        state = sampler.snapshot_state()
        dirty = ReservoirJoin(query, 4, rng=random.Random(4))
        dirty.insert("R1", (1, 2))
        with pytest.raises(RuntimeError, match="freshly constructed"):
            dirty.restore_state(state)

    def test_sampler_restore_state_requires_matching_k(self):
        query = chain3()
        sampler = CyclicReservoirJoin(query, 4, rng=random.Random(5))
        state = sampler.snapshot_state()
        with pytest.raises(ValueError, match="k=4"):
            CyclicReservoirJoin(query, 9, rng=random.Random(6)).restore_state(state)


# --------------------------------------------------------------------- #
# Backend snapshots (native snapshot vs generic pickle fallback)
# --------------------------------------------------------------------- #
class TestBackendSnapshots:
    def test_native_capability_is_probed(self):
        sampler = ReservoirJoin(chain3(), 4, rng=random.Random(8))
        assert callable(getattr(sampler, "snapshot_state", None))
        assert snapshot_backend(sampler)["codec"] == "native"

    def test_pickle_fallback_for_baselines(self):
        sampler = SJoin(chain3(), 4, rng=random.Random(9))
        assert getattr(sampler, "snapshot_state", None) is None
        record = snapshot_backend(sampler)
        assert record["codec"] == "pickle"
        for item in chain3_stream(40, seed=11):
            sampler.insert(item.relation, item.row)  # must not mutate the record
        restored = restore_backend(record)
        assert restored.tuples_processed == 0

    def test_snapshot_is_inert_against_later_ingestion(self):
        sampler = ReservoirJoin(chain3(), 4, rng=random.Random(10))
        stream = chain3_stream(120, seed=12)
        for item in stream[:60]:
            sampler.insert(item.relation, item.row)
        record = snapshot_backend(sampler)
        frozen = pickle.dumps(record)
        for item in stream[60:]:
            sampler.insert(item.relation, item.row)
        assert pickle.dumps(record) == frozen

    def test_restored_backend_is_independent_of_the_original(self, tmp_path):
        path = tmp_path / "b.ckpt"
        original = BatchIngestor(
            ReservoirJoin(chain3(), 6, rng=random.Random(13)), chunk_size=16
        )
        stream = chain3_stream(200, seed=14)
        original.ingest_batch(stream[:100])
        original.save(path)
        restored = BatchIngestor.restore(path)
        original.ingest_batch(stream[100:])
        assert restored.tuples_ingested == 100
        assert restored.sampler.index.size < original.sampler.index.size


# --------------------------------------------------------------------- #
# Fresh-process restore (the crash-recovery story, end to end)
# --------------------------------------------------------------------- #
def _resume_in_subprocess(payload):
    path, suffix = payload
    ingestor = BatchIngestor.restore(path)
    ingestor.ingest(suffix)  # re-chunks at the restored chunk_size
    return ingestor.sampler.sample, ingestor.sampler.statistics()


class TestFreshProcessRestore:
    def test_batch_resumes_bit_identically_in_a_worker_process(self, tmp_path):
        query = chain3()
        stream = chain3_stream(400, seed=15)
        chunk = 50
        uninterrupted = BatchIngestor(
            ReservoirJoin(query, 8, rng=random.Random(16)), chunk_size=chunk
        ).ingest(stream)

        path = str(tmp_path / "b.ckpt")
        interrupted = BatchIngestor(
            ReservoirJoin(query, 8, rng=random.Random(16)), chunk_size=chunk
        )
        for start in range(0, 200, chunk):
            interrupted.ingest_batch(stream[start : start + chunk])
        interrupted.save(path)

        with multiprocessing.Pool(1) as pool:
            sample, statistics = pool.map(
                _resume_in_subprocess, [(path, stream[200:])]
            )[0]
        assert sample == uninterrupted.sampler.sample
        assert statistics == uninterrupted.sampler.statistics()


# --------------------------------------------------------------------- #
# Periodic background checkpointing at chunk boundaries (timer-driven)
# --------------------------------------------------------------------- #
class TestPeriodicCheckpointer:
    """The ROADMAP dead-interval fix: a timer-gated save at the chunk
    boundaries an ingestor already publishes, so a crash loses at most
    one checkpoint interval instead of everything since a manual save."""

    def test_crash_recovery_resumes_bit_identically(self, tmp_path):
        from repro import PeriodicCheckpointer

        stream = chain3_stream(200, seed=23)
        uninterrupted = BatchIngestor(
            ReservoirJoin(chain3(), 6, rng=random.Random(9)), chunk_size=20
        )
        uninterrupted.ingest(stream)

        # interval 0: a checkpoint at *every* boundary, so the "crash"
        # below loses nothing but the in-flight chunk.
        doomed = BatchIngestor(
            ReservoirJoin(chain3(), 6, rng=random.Random(9)), chunk_size=20
        )
        path = str(tmp_path / "periodic.ckpt")
        checkpointer = PeriodicCheckpointer(doomed, path, interval_seconds=0.0)
        checkpointer.install()
        for start in range(0, 120, 20):       # six chunks, then the crash
            doomed.ingest_batch(stream[start : start + 20])
        assert checkpointer.checkpoints_written == 6
        del doomed                            # the process is gone

        recovered = BatchIngestor.restore(path)
        recovered.ingest(stream[120:])        # replay from the last boundary
        assert list(recovered.sampler.sample) == list(
            uninterrupted.sampler.sample
        )
        assert recovered.statistics() == uninterrupted.statistics()

    def test_recovery_loses_at_most_one_interval(self, tmp_path):
        from repro import PeriodicCheckpointer

        stream = chain3_stream(200, seed=29)
        doomed = BatchIngestor(
            ReservoirJoin(chain3(), 6, rng=random.Random(11)), chunk_size=20
        )
        now = [0.0]
        path = str(tmp_path / "windowed.ckpt")
        checkpointer = PeriodicCheckpointer(
            doomed, path, interval_seconds=5.0, clock=lambda: now[0]
        ).install()
        for boundary, start in enumerate(range(0, 200, 20), start=1):
            doomed.ingest_batch(stream[start : start + 20])
            now[0] += 2.0                     # a save every ~3rd boundary
        assert 2 <= checkpointer.checkpoints_written < checkpointer.boundaries_seen

        recovered = BatchIngestor.restore(path)
        lost = len(stream) - recovered.tuples_ingested
        # At 2s per 20-tuple chunk and a 5s interval the window never holds
        # more than ceil(5/2) = 3 chunks of unsaved work.
        assert 0 <= lost <= 60
        recovered.ingest(stream[recovered.tuples_ingested:])
        uninterrupted = BatchIngestor(
            ReservoirJoin(chain3(), 6, rng=random.Random(11)), chunk_size=20
        )
        uninterrupted.ingest(stream)
        assert list(recovered.sampler.sample) == list(
            uninterrupted.sampler.sample
        )
