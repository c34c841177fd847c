"""Checkpoint/restore for long-running ingestion: the durable file format.

The paper's samplers are defined over unbounded insert-only streams, but a
process hosting one is not unbounded: it gets rescheduled, upgraded, killed.
This module is the seam's durability layer — everything an ingestor needs to
resume a stream *bit for bit* goes through one versioned, checksummed file
format, and the sampler itself goes in whole, pickled by
:func:`~repro.core.backend.snapshot_backend`.

The headline invariant — asserted per backend kind by property-harness
section (e) in ``tests/statistical/test_properties.py`` — is **bit-identical
resumption**: ingest a prefix, ``save(path)``, restore in a fresh process,
ingest the suffix, and the final reservoir equals an uninterrupted run under
the same seed.  It holds because the pickled sampler carries the three
things future behaviour depends on:

* the stored relation state, *including* the maintained index structures
  (their amortised ``c̃nt`` over-approximations are history-dependent, so
  they are serialised as-is — rebuilding them by replaying rows would
  re-amortise differently and consume different randomness downstream),
* the reservoir state (contents, running ``w``, the pending skip that may
  span chunk boundaries),
* the exact RNG state (``random.Random.getstate()``) of the sampler.

File format (version 3)
-----------------------
::

    offset  size  field
    0       8     magic  b"RPROCKPT"
    8       4     format version (big-endian)
    12      8     payload length in bytes (big-endian)
    20      32    SHA-256 digest of the payload
    52      ...   payload: pickled ``{"kind", "state"}`` document

The state of a ``"batch"`` document holds the ingestor's chunk counters
and a ``{"class", "state"}`` backend record: the sampler's class path and
the sampler pickled whole.  The version moved to 3 when that became the
only record: a version-2 record names a ``codec`` and may hold a sampler's
own structured snapshot instead, which no code reads any more.

The digest turns silent truncation and bit rot into
:class:`CheckpointCorruptError` instead of an unpickling crash (or, worse, a
quietly wrong reservoir); the version field turns a format change into
:class:`CheckpointVersionError` instead of a guessing game.  Nothing
converts an older layout, so versions 1 and 2 are refused like any other
unknown version, before anything is unpickled.  The payload
always carries the saving ingestor's *kind* (``"batch"``), and
``BatchIngestor.restore`` refuses any other kind with
:class:`CheckpointMismatchError`.  A nested backend record naming a class
this code base no longer has is refused the same way, by
:func:`~repro.core.backend.restore_backend`.  Files of the retired
``"async"`` and ``"sharded"`` kinds are refused so.

Checkpoints are trusted inputs: the payload is a pickle, so only load files
you (or your infrastructure) wrote — the same trust model as every pickle-
based snapshot format.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import time
from typing import Dict, Optional

#: Leading magic of every checkpoint file.
MAGIC = b"RPROCKPT"

#: Current checkpoint format version.  Bump on any incompatible change to
#: the payload layout; readers refuse versions they do not know.
FORMAT_VERSION = 3

#: Header layout after the magic: format version, payload length.
_HEADER = struct.Struct(">IQ")

_DIGEST_BYTES = hashlib.sha256().digest_size


class CheckpointError(Exception):
    """Base class for every checkpoint failure."""


class CheckpointCorruptError(CheckpointError):
    """The file is not a checkpoint, is truncated, or fails its checksum."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint was written by an unknown (newer/older) format version."""


class CheckpointMismatchError(CheckpointError):
    """The checkpoint is valid but does not fit the requested restore —
    wrong ingestor kind, or a nested backend whose class no longer exists."""


class CheckpointCodec:
    """Versioned serialisation of ingestor state to and from checkpoint files.

    One codec instance (the module-level :data:`CODEC`) is shared by every
    ingestor's ``save``/``restore``.  It writes and reads
    :data:`FORMAT_VERSION` only.
    """

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def dump(self, path: str, kind: str, state: Dict[str, object]) -> None:
        """Write one checkpoint: ``state`` tagged with the ingestor ``kind``.

        The write goes through a same-directory temporary file and an
        atomic :func:`os.replace`, so a crash mid-save leaves the previous
        checkpoint intact instead of a truncated one.
        """
        payload = pickle.dumps(
            {"kind": kind, "state": state}, protocol=pickle.HIGHEST_PROTOCOL
        )
        blob = b"".join(
            (
                MAGIC,
                _HEADER.pack(FORMAT_VERSION, len(payload)),
                hashlib.sha256(payload).digest(),
                payload,
            )
        )
        path = os.fspath(path)
        tmp_path = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            # A failed save (disk full, interrupt) must not litter the
            # directory with stale temp files; the previous checkpoint at
            # ``path`` is untouched either way.
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def load(self, path: str, expected_kind: Optional[str] = None) -> Dict[str, object]:
        """Read and verify one checkpoint; returns the saved state dict.

        Raises :class:`CheckpointCorruptError` for anything that is not a
        well-formed, checksum-clean checkpoint, :class:`CheckpointVersionError`
        for an unknown format version, and :class:`CheckpointMismatchError`
        when ``expected_kind`` is given and the file was saved by a
        different ingestor kind.
        """
        with open(path, "rb") as handle:
            data = handle.read()
        header_size = len(MAGIC) + _HEADER.size + _DIGEST_BYTES
        if len(data) < header_size:
            raise CheckpointCorruptError(
                f"{path}: file is {len(data)} bytes, shorter than the "
                f"{header_size}-byte checkpoint header"
            )
        if data[: len(MAGIC)] != MAGIC:
            raise CheckpointCorruptError(f"{path}: not a checkpoint file (bad magic)")
        version, payload_len = _HEADER.unpack_from(data, len(MAGIC))
        if version != FORMAT_VERSION:
            raise CheckpointVersionError(
                f"{path}: checkpoint format version {version} is not "
                f"supported (this reader understands version {FORMAT_VERSION})"
            )
        digest_start = len(MAGIC) + _HEADER.size
        digest = data[digest_start:header_size]
        payload = data[header_size:]
        if len(payload) != payload_len:
            raise CheckpointCorruptError(
                f"{path}: payload is {len(payload)} bytes but the header "
                f"promises {payload_len} (truncated or overwritten file)"
            )
        if hashlib.sha256(payload).digest() != digest:
            raise CheckpointCorruptError(f"{path}: payload checksum mismatch")
        try:
            document = pickle.loads(payload)
        except Exception as error:  # unpicklable garbage that passed the digest
            raise CheckpointCorruptError(f"{path}: payload does not unpickle: {error!r}")
        if not isinstance(document, dict) or "kind" not in document or "state" not in document:
            raise CheckpointCorruptError(f"{path}: payload is not a checkpoint document")
        if expected_kind is not None and document["kind"] != expected_kind:
            raise CheckpointMismatchError(
                f"{path}: checkpoint was saved by a {document['kind']!r} "
                f"ingestor and cannot restore a {expected_kind!r} ingestor"
            )
        return document


#: The shared codec every ingestor's ``save``/``restore`` goes through.
CODEC = CheckpointCodec()


class PeriodicCheckpointer:
    """Background checkpointing on a timer, evaluated at chunk boundaries.

    Closes the ROADMAP's dead-interval carry-over: a long-running ingestion
    that only checkpoints when its driver remembers to call ``save`` can
    lose an unbounded stream suffix to a crash.  This hook saves on a wall-
    clock cadence *without* ever cutting mid-chunk — it rides the same
    chunk-boundary hook seam the serving layer uses
    (``add_boundary_hook``), so every write happens exactly where the
    restored run re-chunks the remaining stream as an uninterrupted run
    would, keeping the bit-identical-resumption invariant intact.

    Parameters
    ----------
    ingestor:
        Any ingestor exposing ``add_boundary_hook`` and ``save(path)``
        (a ``BatchIngestor``); every chunk it ingests is a boundary, whether
        its chunks come straight from the source or through
        :func:`~repro.relational.stream.prefetched`.
    path:
        Checkpoint file; each write atomically replaces the previous one.
    interval_seconds:
        Minimum wall-clock spacing between checkpoints.  ``0`` checkpoints
        at every boundary (the crash-test configuration).
    clock:
        Monotonic time source, injectable for deterministic timer tests.

    The ingestor keeps ingesting at full speed between checkpoints; the
    save itself runs inline at the boundary (the hook seam is synchronous),
    so the worst-case stall is one snapshot+write per interval.
    """

    def __init__(
        self,
        ingestor,
        path: str,
        interval_seconds: float,
        clock=None,
    ) -> None:
        if interval_seconds < 0:
            raise ValueError("interval_seconds must be non-negative")
        if not hasattr(ingestor, "save"):
            raise TypeError(
                f"{type(ingestor).__name__} has no save(path); periodic "
                "checkpointing needs a durable ingestor"
            )
        self.ingestor = ingestor
        self.path = os.fspath(path)
        self.interval_seconds = interval_seconds
        self._clock = clock if clock is not None else time.monotonic
        self._installed = False
        self._last_checkpoint_at: Optional[float] = None
        self.boundaries_seen = 0
        self.checkpoints_written = 0
        self.checkpoint_seconds = 0.0

    def install(self) -> "PeriodicCheckpointer":
        """Register onto the ingestor's boundary-hook seam; returns self.

        The timer starts now: the first checkpoint lands at the first chunk
        boundary at least ``interval_seconds`` from this call.
        """
        if self._installed:
            raise RuntimeError("this PeriodicCheckpointer is already installed")
        self._last_checkpoint_at = self._clock()
        self.ingestor.add_boundary_hook(self._on_boundary)
        self._installed = True
        return self

    def _on_boundary(self, items) -> None:
        self.boundaries_seen += 1
        now = self._clock()
        if now - self._last_checkpoint_at >= self.interval_seconds:
            self.ingestor.save(self.path)
            self.checkpoints_written += 1
            done = self._clock()
            self.checkpoint_seconds += done - now
            self._last_checkpoint_at = done

    def statistics(self) -> Dict[str, object]:
        """Observability counters for the checkpoint cadence."""
        return {
            "checkpoint_path": self.path,
            "checkpoint_interval_seconds": self.interval_seconds,
            "boundaries_seen": self.boundaries_seen,
            "checkpoints_written": self.checkpoints_written,
            "checkpoint_seconds": round(self.checkpoint_seconds, 4),
        }


__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "CheckpointMismatchError",
    "CheckpointCodec",
    "CODEC",
    "PeriodicCheckpointer",
]
