"""Serving benchmark: concurrent reader throughput under sustained ingestion.

The serving layer's claim is that ``sample(k)`` stays cheap and safe while
the writer never pauses.  Two measured modes on the chain-3 workload:

* **writer_baseline** — the batched writer ingesting the stream alone.
  The reference for how much serving costs the writer (reported as an
  unredacted ratio, never gated: readers steal cycles from the writer and
  that is the honest figure).
* **served_threads** — one writer thread driving chunks through a
  :class:`repro.SampleServer` *continuously* (it yields the GIL at chunk
  boundaries but never sleeps) while ``N_READERS`` threads hammer
  ``sample(k)`` with mixed staleness budgets the whole time.
  Headline figures: aggregate reader throughput (reads/s) and p99 read
  latency, both measured strictly inside the writer's active window — no
  read is counted after ingestion finished.

``bench/run.py``'s ``serve-chain3`` workload reads from the writer's own
thread; this script is the one that measures many reader threads against a
live writer.

Emits ``BENCH_serving.json`` in the current working directory.

Run with:  python benchmarks/bench_serving.py
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import threading
import time
from typing import Dict, List, Optional

from repro import BatchIngestor, ReservoirJoin, SampleServer
from repro.relational.query import JoinQuery
from repro.relational.stream import StreamTuple, chunk_stream

from harness import percentile

#: CI smoke knob (see ``bench_batch_ingest.py``): shrink everything
#: proportionally so ``make bench-smoke`` can assert execution + valid JSON.
#: The floors keep the writer busy for many of the interpreter's thread
#: switch intervals (5 ms by default) and many chunk boundaries, so readers
#: are scheduled inside the writer's window even at smoke scale.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
N_TUPLES = max(8_000, int(40_000 * SCALE))
CHUNK_SIZE = max(128, int(1_024 * SCALE))
SAMPLE_SIZE = 500
READ_K = 100
N_READERS = 8
DOMAIN = 4_000
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
SEED = 2024


def chain3_query() -> JoinQuery:
    return JoinQuery.from_spec(
        "chain-3", {"R1": ["x1", "x2"], "R2": ["x2", "x3"], "R3": ["x3", "x4"]}
    )


def make_stream(n: int, seed: int = SEED) -> List[StreamTuple]:
    rng = random.Random(seed)
    relations = ["R1", "R2", "R3"]
    return [
        StreamTuple(relations[i % 3], (rng.randrange(DOMAIN), rng.randrange(DOMAIN)))
        for i in range(n)
    ]


def make_server(query: JoinQuery) -> SampleServer:
    return SampleServer(
        BatchIngestor(
            ReservoirJoin(query, SAMPLE_SIZE, rng=random.Random(1)),
            chunk_size=CHUNK_SIZE,
        ),
        rng=random.Random(2),
    )


def latency_ms(latencies: List[float], fraction: float) -> Optional[float]:
    """Nearest-rank latency in ms, or ``None`` when no read completed."""
    if not latencies:
        return None
    return round(percentile(latencies, fraction) * 1e3, 4)


def run_writer_baseline(query: JoinQuery, stream: List[StreamTuple]) -> float:
    gc.collect()
    start = time.perf_counter()
    sampler = ReservoirJoin(query, SAMPLE_SIZE, rng=random.Random(1))
    BatchIngestor(sampler, chunk_size=CHUNK_SIZE).ingest(stream)
    return time.perf_counter() - start


def run_served_threads(query: JoinQuery, stream: List[StreamTuple]) -> Dict:
    """One sustained-ingestion run: the writer never sleeps, the readers
    never stop hammering until it finishes.  Reader figures only count
    reads whose *entire* latency window fell inside active ingestion."""
    server = make_server(query)
    pieces = list(chunk_stream(stream, CHUNK_SIZE))
    barrier = threading.Barrier(N_READERS + 1)
    writer_done = threading.Event()
    writer_wall = [0.0]
    latencies: List[List[float]] = [[] for _ in range(N_READERS)]

    def write() -> None:
        barrier.wait()
        start = time.perf_counter()
        try:
            for piece in pieces:
                server.ingest_batch(piece)
                # Hand the GIL over at each chunk boundary, as a writer whose
                # chunks arrive from a socket or file would.  Without it the
                # writer re-takes the server lock before a woken reader can,
                # and whole runs end with no read served.
                time.sleep(0)
        finally:
            writer_wall[0] = time.perf_counter() - start
            writer_done.set()

    def read(slot: int) -> None:
        rng = random.Random(100 + slot)
        mine = latencies[slot]
        barrier.wait()
        while not writer_done.is_set():
            start = time.perf_counter()
            sample = server.sample(
                READ_K, max_staleness=rng.choice((0, 1, 2))
            )
            elapsed = time.perf_counter() - start
            if not writer_done.is_set():
                mine.append(elapsed)
            assert len(sample) <= READ_K

    gc.collect()
    threads = [
        threading.Thread(target=read, args=(slot,)) for slot in range(N_READERS)
    ] + [threading.Thread(target=write)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    flat = [latency for lane in latencies for latency in lane]
    stats = server.statistics()
    return {
        "writer_wall_seconds": writer_wall[0],
        "reads_in_window": len(flat),
        "reader_throughput_per_s": len(flat) / writer_wall[0],
        "p50_read_latency_ms": latency_ms(flat, 0.50),
        "p99_read_latency_ms": latency_ms(flat, 0.99),
        "epochs": stats["epoch"],
        "snapshots_taken": stats["snapshots_taken"],
        "snapshot_cache_hits": stats["snapshot_cache_hits"],
    }


def bench() -> Dict:
    query = chain3_query()
    stream = make_stream(N_TUPLES)
    n_chunks = -(-len(stream) // CHUNK_SIZE)

    # Sanity outside the timed regions: a served read mid-stream is a
    # boundary-exact cut.
    probe = make_server(query)
    probe.ingest_batch(stream[:CHUNK_SIZE])
    assert probe.snapshot().epoch == 1

    baseline = min(run_writer_baseline(query, stream) for _ in range(REPEATS))
    threaded_runs = [run_served_threads(query, stream) for _ in range(REPEATS)]
    threaded = min(threaded_runs, key=lambda r: r["writer_wall_seconds"])

    modes = [
        {
            "mode": "writer_baseline",
            "writer_wall_seconds": round(baseline, 4),
            "tuples_per_second": round(N_TUPLES / baseline),
        },
        {
            "mode": "served_threads",
            "writer_wall_seconds": round(threaded["writer_wall_seconds"], 4),
            "writer_overhead_over_baseline": round(
                threaded["writer_wall_seconds"] / baseline, 2
            ),
            "readers": N_READERS,
            "reads_in_window": threaded["reads_in_window"],
            "reader_throughput_per_s": round(
                threaded["reader_throughput_per_s"], 1
            ),
            "p50_read_latency_ms": threaded["p50_read_latency_ms"],
            "p99_read_latency_ms": threaded["p99_read_latency_ms"],
            "epochs": threaded["epochs"],
            "snapshots_taken": threaded["snapshots_taken"],
            "snapshot_cache_hits": threaded["snapshot_cache_hits"],
        },
    ]

    return {
        "benchmark": "serving",
        "query": "chain-3",
        "n_tuples": N_TUPLES,
        "n_chunks": n_chunks,
        "chunk_size": CHUNK_SIZE,
        "sample_size": SAMPLE_SIZE,
        "read_k": READ_K,
        "readers": N_READERS,
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "reader_throughput_per_s": round(
            threaded["reader_throughput_per_s"], 1
        ),
        "p99_read_latency_ms": threaded["p99_read_latency_ms"],
        "writer_wall_seconds": round(threaded["writer_wall_seconds"], 4),
        "modes": modes,
        "methodology": (
            f"served_threads runs one writer thread pushing {n_chunks} "
            f"chunks through a SampleServer without ever sleeping (it "
            "yields the GIL at each chunk boundary, as an I/O-fed writer "
            "would) while "
            f"{N_READERS} reader threads hammer sample(k={READ_K}) with "
            "staleness budgets drawn from {0, 1, 2}. Reader throughput and "
            "nearest-rank latency percentiles count only reads completed "
            "inside the writer's active window, so the headline figures "
            "describe reads under sustained ingestion, not reads of an idle "
            "server; a run with no read in the window reports its latencies "
            "as null, never as 0 ms. The writer's own wall clock is reported "
            "unredacted next to the solo baseline "
            "(writer_overhead_over_baseline): readers timeshare the GIL "
            f"with the writer (cpu_count={os.cpu_count()}, switch interval "
            f"{sys.getswitchinterval() * 1e3:g} ms) and the ratio exceeds 1x "
            "by design — the O(k) epoch cut means readers never block the "
            "writer on anything but the GIL."
        ),
    }


def main() -> None:
    report = bench()
    path = os.path.join(os.getcwd(), "BENCH_serving.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    threaded = next(m for m in report["modes"] if m["mode"] == "served_threads")
    print(
        f"serving: {threaded['reads_in_window']} reads in the writer's window "
        f"({threaded['reader_throughput_per_s']} reads/s) from {N_READERS} "
        f"readers, p99 {threaded['p99_read_latency_ms']} ms, "
        f"writer {threaded['writer_wall_seconds']}s "
        f"({threaded['writer_overhead_over_baseline']}x solo) over "
        f"{report['n_chunks']} chunks"
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
