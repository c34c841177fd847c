"""Microbenchmark: a prefetched blocking chunk source against a plain one.

A :class:`repro.BatchIngestor` over a ``ReservoirJoin`` on a Zipf-skewed
chain-3 stream is fed from a :class:`repro.relational.stream.ThrottledChunkSource` whose chunk
delivery blocks (a stand-in for network transport), once synchronously
(``ingest_batch`` per delivered chunk) and once through
:func:`repro.prefetched` (one thread reads the source ahead into a bounded
queue; ``ingest_batch`` stays on the caller's thread).  Reported: both
end-to-end wall clocks and the fraction of the transport wait prefetching
hid.  Both runs must leave bit-identical reservoirs.

Emits ``BENCH_async.json`` in the current working directory.

Run with:  python benchmarks/bench_async.py
"""

from __future__ import annotations

import json
import os
import random
from bisect import bisect_left
from typing import Dict, List

from repro.core.reservoir_join import ReservoirJoin
from repro.ingest.batch import BatchIngestor
from repro.relational.query import JoinQuery
from repro.relational.stream import StreamTuple, ThrottledChunkSource, prefetched

from harness import timed

#: CI smoke knob (see ``bench_batch_ingest.py``): shrink the stream and the
#: chunk size proportionally so ``make bench-smoke`` can assert execution +
#: valid JSON.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
SAMPLE_SIZE = 1_000
ZIPF_SKEW = 2.0
X2_DOMAIN = 1_024      # Zipf-skewed join attribute (the hot one)
X3_DOMAIN = 262_144    # uniform join attribute
ID_DOMAIN = 1_000_000  # wide non-join attributes keep rows distinct
#: Stream mix: the middle relation is the fact table (most of the traffic),
#: the chain ends are dimension-like.
RELATION_MIX = (("R1", 0.05), ("R2", 0.70), ("R3", 0.25))
SEED = 2024

# Blocking delivery per chunk, on a stream prefix (the overlap effect is
# per-chunk; a prefix keeps the benchmark quick).
ASYNC_TUPLES = max(2_000, int(60_000 * SCALE))
ASYNC_CHUNK_SIZE = max(128, int(2_048 * SCALE))
ASYNC_LATENCY_SECONDS = 0.02
#: Runs per mode; the *minimum* wall is reported (least-noise estimate).
RUNS = 2


def chain3_query() -> JoinQuery:
    return JoinQuery.from_spec(
        "chain-3", {"R1": ["x1", "x2"], "R2": ["x2", "x3"], "R3": ["x3", "x4"]}
    )


class ZipfValues:
    """Draw values from ``range(n)`` with P(rank) ∝ 1 / (rank + 1)^skew."""

    def __init__(self, n: int, skew: float, rng: random.Random) -> None:
        self._rng = rng
        self._cumulative: List[float] = []
        total = 0.0
        for rank in range(n):
            total += 1.0 / (rank + 1) ** skew
            self._cumulative.append(total)
        self._total = total

    def draw(self) -> int:
        return bisect_left(self._cumulative, self._rng.random() * self._total)


def make_skewed_stream(n: int, seed: int = SEED) -> List[StreamTuple]:
    """Chain-3 stream with Zipf-skewed ``x2``, uniform ``x3``.

    Relations arrive in the :data:`RELATION_MIX` proportions, interleaved.
    Every tuple consumes the RNG the same way, so a shorter stream is a
    prefix of a longer one.
    """
    rng = random.Random(seed)
    zipf = ZipfValues(X2_DOMAIN, ZIPF_SKEW, rng)
    stream: List[StreamTuple] = []
    for _ in range(n):
        pick = rng.random()
        cumulative = 0.0
        relation = RELATION_MIX[-1][0]
        for name, share in RELATION_MIX:
            cumulative += share
            if pick < cumulative:
                relation = name
                break
        if relation == "R1":
            row = (rng.randrange(ID_DOMAIN), zipf.draw())
        elif relation == "R2":
            row = (zipf.draw(), rng.randrange(X3_DOMAIN))
        else:
            row = (rng.randrange(X3_DOMAIN), rng.randrange(ID_DOMAIN))
        stream.append(StreamTuple(relation, row))
    return stream


def make_ingestor(query: JoinQuery) -> BatchIngestor:
    return BatchIngestor(
        ReservoirJoin(query, SAMPLE_SIZE, rng=random.Random(1)),
        chunk_size=ASYNC_CHUNK_SIZE,
    )


def throttled(stream: List[StreamTuple]) -> ThrottledChunkSource:
    return ThrottledChunkSource(
        stream, ASYNC_CHUNK_SIZE, latency_seconds=ASYNC_LATENCY_SECONDS
    )


def bench_async(query: JoinQuery, stream: List[StreamTuple]) -> Dict:
    """Sync vs prefetched ingestion over a blocking chunk source."""
    # Only the latest ingestor of each mode is kept, for the identity check.
    latest: Dict[str, BatchIngestor] = {}

    def timed_run(mode: str, wrap) -> float:
        ingestor = latest[mode] = make_ingestor(query)
        source = throttled(stream)

        def run() -> None:
            for chunk in wrap(source):
                ingestor.ingest_batch(chunk)

        return timed(run)

    sync_seconds = min(timed_run("sync", iter) for _ in range(RUNS))
    async_seconds = min(timed_run("async", prefetched) for _ in range(RUNS))
    # Outside the timed regions: prefetching is transport only.
    assert latest["async"].sampler.sample == latest["sync"].sampler.sample, (
        "prefetched ingestion must leave the synchronous reservoir"
    )
    n_chunks = -(-len(stream) // ASYNC_CHUNK_SIZE)
    transport_seconds = n_chunks * ASYNC_LATENCY_SECONDS
    # Clamped into [0, transport]: noise can make the async run beat sync by
    # more than the whole transport wait, which would read as >100% hidden.
    hidden = min(transport_seconds, max(0.0, sync_seconds - async_seconds))
    return {
        "chunk_size": ASYNC_CHUNK_SIZE,
        "latency_seconds_per_chunk": ASYNC_LATENCY_SECONDS,
        "chunks": n_chunks,
        "transport_seconds": round(transport_seconds, 4),
        "sync_seconds": round(sync_seconds, 4),
        "async_seconds": round(async_seconds, 4),
        "speedup": round(sync_seconds / async_seconds, 2),
        "transport_hidden_fraction": round(hidden / transport_seconds, 2),
    }


def bench() -> Dict:
    query = chain3_query()
    stream = make_skewed_stream(ASYNC_TUPLES)
    return {
        "benchmark": "async",
        "query": "chain-3",
        "n_tuples": ASYNC_TUPLES,
        "sample_size": SAMPLE_SIZE,
        "zipf_skew": ZIPF_SKEW,
        "runs": RUNS,
        "methodology": (
            "x2 is Zipf-skewed (skew=2.0). Each chunk's delivery blocks for "
            f"{ASYNC_LATENCY_SECONDS * 1000:.0f} ms. The sync wall interleaves "
            "that wait with ingest_batch; the async wall times the same loop "
            "over prefetched(source), which reads the source ahead on one "
            "thread. Both are the minimum of "
            f"{RUNS} runs, each timed with the garbage collector paused."
        ),
        "async_transport": bench_async(query, stream),
    }


def main() -> None:
    report = bench()
    with open("BENCH_async.json", "w") as handle:
        json.dump(report, handle, indent=2)
    a = report["async_transport"]
    print(
        f"async transport benchmark — chain-3, N={report['n_tuples']}, "
        f"k={report['sample_size']}, "
        f"{a['chunks']} chunks x {a['latency_seconds_per_chunk'] * 1000:.0f} ms"
    )
    print(
        f"async transport: sync {a['sync_seconds']:.3f}s vs prefetched "
        f"{a['async_seconds']:.3f}s -> {a['speedup']:.2f}x "
        f"({a['transport_hidden_fraction']:.0%} of {a['transport_seconds']:.2f}s "
        "blocking transport hidden)"
    )
    print("wrote BENCH_async.json")


if __name__ == "__main__":
    main()
