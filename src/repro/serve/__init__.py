"""The sample-serving layer: snapshot-isolated concurrent reads.

One writer drives a live ingestor; any number of reader threads draw
exactly-uniform samples from O(k) epoch records of the reservoirs, which
never observe a half-applied chunk.  See :mod:`repro.serve.server` for the
uniformity argument and the bounded-staleness policy.
"""

from .server import EpochSnapshot, SampleServer

__all__ = ["EpochSnapshot", "SampleServer"]
