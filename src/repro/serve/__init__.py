"""The sample-serving layer: snapshot-isolated concurrent reads.

One writer drives a live ingestor; many readers draw exactly-uniform
samples from O(k) epoch records of the reservoirs, which never observe a
half-applied chunk.  See :mod:`repro.serve.server` for the uniformity argument and
:mod:`repro.serve.frontend` for the asyncio front end.
"""

from .frontend import DEFAULT_BUFFER_CHUNKS, ReaderTask, ServerFrontend, quantile
from .server import EpochSnapshot, SampleServer

__all__ = [
    "DEFAULT_BUFFER_CHUNKS",
    "EpochSnapshot",
    "ReaderTask",
    "SampleServer",
    "ServerFrontend",
    "quantile",
]
