"""The repository benchmark: three closed-loop workloads over the public API.

Run from the repository root::

    python3 bench/run.py                        # every workload, one child process each
    python3 bench/run.py --workload insert-chain3 --seed 7
    python3 bench/run.py --workload serve-chain3 --trace 1

A run generates its input stream from ``--seed`` before anything is timed,
freezes it out of the garbage collector's view, runs one warm-up pass over
the first quarter of the stream, then a fixed number of measured passes (the
workload's ``passes``), so two commits are always compared over the same
number of samples.  ``--seconds``
is accepted for runners that pass a time budget and changes nothing.
Every pass builds a fresh stack, seeded from ``--seed``, and drives it as a
closed loop: one caller that sends the next chunk only after the previous
call returned.  The collector stays on inside the passes, because users pay
for it.

The passes are replicas: same inputs, same stack seed, a full collection
before each, so every operation does the same work in every pass.  Other
tenants of a shared machine only ever add time, so each operation's time is
its minimum over the passes, and the metrics are computed from those minima.
The passes take turns on the CPUs the process may use, one CPU per pass, so
a CPU that another tenant slows for minutes cannot set every sample.

The first measured pass is the checked pass.  Its final state goes through
the workload's correctness gate outside the timed region; a failed gate ends
the run with exit code 1 and no metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` replays each
pass with spans around the public calls into every layer (see ``tracing.py``)
and reports the per-layer metrics of the first traced pass; its spans go to
``BENCH_trace_<workload>.json``.  The last line of standard output is one
JSON object; every run also writes it into ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from typing import Dict, List, Optional

import numpy

from tracing import Probe, Recorder, patched, summarize, top_level_seconds

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"bench: no repro package under {SRC}; run from a repository checkout")
sys.path.insert(0, SRC)

import repro.core.turnstile as turnstile_module  # noqa: E402
import repro.serve.server as server_module  # noqa: E402
from repro import BatchIngestor, ReservoirJoin, SampleServer  # noqa: E402
from repro.core.backend import chunk_apply  # noqa: E402
from repro.core.batch_reservoir import BatchedPredicateReservoir  # noqa: E402
from repro.core.turnstile import TurnstileReservoirJoin  # noqa: E402
from repro.index.dynamic_index import DynamicJoinIndex  # noqa: E402
from repro.index.tree_index import TreeIndex  # noqa: E402
from repro.relational.query import JoinQuery  # noqa: E402
from repro.relational.stream import StreamDelete, StreamTuple  # noqa: E402
from repro.stats.memory import megabytes, sampler_memory_bytes  # noqa: E402

#: Extra stacks built and torn down before each measured pass, so
#: ``setup_s`` is a median over enough builds, spread over the whole run.
SETUP_REPEATS = 3
#: Untraced and traced replica pairs in a traced run.
TRACE_PAIRS = 2
#: The CPUs this process may run on; measured passes take turns on them.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

END_TO_END = {
    "ingest_tps": "items/s",
    "chunk_p50_ms": "ms",
    "chunk_p95_ms": "ms",
    "setup_s": "s",
    "state_mb": "MiB",
}

PER_LAYER = {
    "relational.count_results.calls": "count",
    "relational.count_results.self_s": "s",
    "index.insert_rows.calls": "count",
    "index.insert_rows.rows": "count",
    "index.insert_rows.self_s": "s",
    "index.delta_batch_sizes.self_s": "s",
    "index.propagations": "count",
    "index.delete.calls": "count",
    "index.delete.self_s": "s",
    "index.sample.calls": "count",
    "index.sample.self_s": "s",
    "core.sampler.apply.self_s": "s",
    "core.reservoir.process_deferred_many.self_s": "s",
    "core.reservoir.items_examined": "count",
    "core.reservoir.examined_ratio": "ratio",
    "core.reservoir.rebase_population.calls": "count",
    "core.reservoir.rebase_population.self_s": "s",
    "core.turnstile.deletes_applied": "count",
    "core.turnstile.evictions": "count",
    "core.turnstile.refills": "count",
    "core.turnstile.refill_accept_ratio": "ratio",
    "core.turnstile.retraction_tax": "ratio",
    "ingest.chunk.self_s": "s",
    "ingest.checkpoint.save.calls": "count",
    "ingest.checkpoint.save.self_s": "s",
    "ingest.checkpoint.save.bytes": "bytes",
    "ingest.checkpoint.restore.self_s": "s",
    "serve.snapshot.calls": "count",
    "serve.snapshot.self_s": "s",
    "serve.cut.snapshot_backend.self_s": "s",
    "serve.cut.restore_backend.self_s": "s",
    "serve.cache_hit_ratio": "ratio",
    "serve.sample.self_s": "s",
    "serve.read_p50_ms": "ms",
    "serve.read_p99_ms": "ms",
    "bench.unattributed_s": "s",
    "bench.unattributed_share": "ratio",
    "bench.trace_overhead": "ratio",
}

CHAIN3 = {"R1": ["x1", "x2"], "R2": ["x2", "x3"], "R3": ["x3", "x4"]}
TWO_WAY = {"R": ["a", "b"], "S": ["b", "c"]}


class GateError(Exception):
    """A workload's output failed its correctness gate."""


# --------------------------------------------------------------------------- #
# Inputs, and the references the gates check against
# --------------------------------------------------------------------------- #
def scaled(size: int, scale: float, floor: int) -> int:
    return max(floor, int(size * scale))


def chunked(items: List, size: int) -> List[List]:
    return [items[start : start + size] for start in range(0, len(items), size)]


def chain_stream(seed: int, n: int, domain: int) -> List[StreamTuple]:
    """Round-robin over the relations.  The rows are drawn from a fixed seed,
    keys uniform over ``domain``; ``seed`` draws the order in which each
    relation's rows arrive.  Every seed ends with the same join, so seeds
    differ in how the join grows, not in how large it gets."""
    shape, order = random.Random(0), random.Random(seed)
    names = list(CHAIN3)
    rows = []
    for first in range(len(names)):
        block = [(shape.randrange(domain), shape.randrange(domain)) for _ in range(first, n, len(names))]
        order.shuffle(block)
        rows.append(block)
    return [StreamTuple(names[position % 3], rows[position % 3][position // 3]) for position in range(n)]


def relation_rows(stream, spec) -> Dict[str, set]:
    rows = {name: set() for name in spec}
    for item in stream:
        rows[item.relation].add(item.row)
    return rows


def chain_count(rows: Dict[str, set], spec) -> int:
    """Exact result count of a chain join whose relations, in ``spec`` order,
    each join their second column with the next relation's first column."""
    weights: Optional[Counter] = None
    for name in spec:
        following: Counter = Counter()
        for left, right in rows[name]:
            following[right] += 1 if weights is None else weights.get(left, 0)
        weights = following
    return sum(weights.values())


def check_sample(sample, size: int, spec, rows: Dict[str, set], what: str) -> None:
    """``sample`` holds ``size`` distinct results, each built from stored rows."""
    if len(sample) != size:
        raise GateError(f"{what}: {len(sample)} results, expected {size}")
    seen = set()
    for result in sample:
        identity = tuple(sorted(result.items()))
        if identity in seen:
            raise GateError(f"{what}: result {result} drawn twice")
        seen.add(identity)
        for name, attrs in spec.items():
            if tuple(result.get(attr) for attr in attrs) not in rows[name]:
                raise GateError(f"{what}: {result} is not a join result ({name} row missing)")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# --------------------------------------------------------------------------- #
# Probes: the public calls into each layer that a traced pass wraps
# --------------------------------------------------------------------------- #
def probes() -> List[Probe]:
    """Every probe, installed on every workload, so a layer that reads 0 on
    a workload was wrapped and never entered."""
    # chunk_apply picks each sampler's chunk entry point; trace exactly that one.
    entries = [
        Probe(sampler_cls, chunk_apply(sampler_cls(JoinQuery.from_spec("probe", TWO_WAY), 1))[1], "core.sampler.apply")
        for sampler_cls in (ReservoirJoin, TurnstileReservoirJoin)
    ]
    return entries + [
        Probe(BatchIngestor, "ingest_batch", "ingest.chunk"),
        Probe(DynamicJoinIndex, "insert_rows", "index.insert_rows", weigh=lambda args: len(args[2])),
        Probe(TreeIndex, "delta_batch_sizes", "index.delta_batch_sizes"),
        Probe(DynamicJoinIndex, "delete", "index.delete"),
        Probe(DynamicJoinIndex, "sample", "index.sample"),
        Probe(BatchedPredicateReservoir, "process_deferred_many", "core.reservoir.process_deferred_many"),
        Probe(BatchedPredicateReservoir, "rebase_population", "core.reservoir.rebase_population"),
        Probe(turnstile_module, "count_results", "relational.count_results"),
        Probe(SampleServer, "sample", "serve.sample"),
        Probe(SampleServer, "snapshot", "serve.snapshot"),
        Probe(server_module, "snapshot_backend", "serve.cut.snapshot_backend"),
        Probe(server_module, "restore_backend", "serve.cut.restore_backend"),
        Probe(BatchIngestor, "save", "ingest.checkpoint.save"),
        Probe(BatchIngestor, "restore", "ingest.checkpoint.restore"),
    ]


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
class Ops:
    """Times every operation the closed loop issues and counts failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: Dict[str, List[float]] = defaultdict(list)

    def call(self, kind: str, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.latencies[kind].append(time.perf_counter() - start)
        return result


class Workload:
    """One workload: its inputs, its stack, its closed loop and its gate.
    ``BENCHMARK.json`` and ``README.md`` say why each one exists."""

    name = ""
    spec = CHAIN3
    k = 1000
    chunk_size = 1000
    #: Measured passes of an untraced run, fixed so every run, on every
    #: commit, takes each operation's floor over the same number of samples.
    passes: int

    def generate(self, seed: int, scale: float, scratch: str) -> dict:
        raise NotImplementedError

    def build(self, inputs: dict, rng: random.Random):
        raise NotImplementedError

    def drive(self, stack, inputs: dict, ops: Ops, log: dict) -> None:
        """The timed closed loop."""
        for chunk in inputs["chunks"]:
            ops.call("chunk", stack.ingest_batch, chunk)

    def finish(self, stack, inputs: dict, ops: Ops, log: dict) -> None:
        """Operations after the loop, timed apart from ``ingest_tps``."""

    def observe(self, stack, log: dict) -> None:
        """Untimed reads of the stack's counters at the end of the pass."""

    def samplers(self, stack) -> list:
        return [stack.sampler]

    def gate(self, stack, inputs: dict, log: dict) -> None:
        raise NotImplementedError

    def trace_extras(self, inputs: dict, plain: List[dict], seed: int) -> dict:
        """Per-layer metrics taken from the trace run's untraced passes."""
        return {}


class InsertChain3(Workload):
    """Chain-3 inserts through ``BatchIngestor`` over ``ReservoirJoin``."""

    name = "insert-chain3"
    passes = 40
    size = 20_000
    domain = 400
    # 200 chunks a pass, so ten lie beyond the p95.
    chunk_size = 100

    def generate(self, seed, scale, scratch):
        stream = chain_stream(seed, scaled(self.size, scale, 4 * self.chunk_size), self.domain)
        rows = relation_rows(stream, self.spec)
        return {
            "chunks": chunked(stream, self.chunk_size),
            "items": len(stream),
            "rows": rows,
            "count": chain_count(rows, self.spec),
        }

    def build(self, inputs, rng):
        sampler = ReservoirJoin(JoinQuery.from_spec(self.name, self.spec), self.k, rng=rng)
        return BatchIngestor(sampler, chunk_size=self.chunk_size)

    def gate(self, stack, inputs, log):
        size = min(self.k, inputs["count"])
        check_sample(stack.sampler.sample, size, self.spec, inputs["rows"], "reservoir")


class Turnstile2Way(Workload):
    """Inserts and retractions through ``TurnstileReservoirJoin``."""

    name = "turnstile-2way"
    passes = 36
    spec = TWO_WAY
    k = 100
    # Small chunks give a pass 200 chunks, so ten lie beyond the p95.
    chunk_size = 13
    size = 2000
    domain = 2000
    join_values = 64
    retracted_share = 0.3
    early_share = 0.1

    def generate(self, seed, scale, scratch):
        # The stream's shape is drawn from a fixed seed: which relation each
        # insert goes to, its join value b, which inserts are retracted and
        # where each retraction arrives.  --seed draws the other column of
        # every row (rows stay distinct).  Every seed therefore does the same
        # delete runs over the same join, and seeds differ in data, not in
        # volume.
        shape, rng = random.Random(0), random.Random(seed)
        n = scaled(self.size, scale, 4 * self.chunk_size)
        names = ["R", "S"] * (n // 2) + ["R"] * (n % 2)
        shape.shuffle(names)
        inserts: List[StreamTuple] = []
        seen = set()
        for name in names:
            value = shape.randrange(self.join_values)
            while True:
                key = rng.randrange(self.domain)
                row = (key, value) if name == "R" else (value, key)
                if (name, row) not in seen:
                    break
            seen.add((name, row))
            inserts.append(StreamTuple(name, row))
        retracted = shape.sample(range(n), round(self.retracted_share * n))
        early = set(retracted[: round(self.early_share * len(retracted))])
        events = [(position + 0.5, item) for position, item in enumerate(inserts)]
        for position in retracted:
            item = inserts[position]
            # An early retraction arrives before its insert (a tombstone).
            when = shape.uniform(0, position + 0.5) if position in early else shape.uniform(position + 0.5, n)
            events.append((when, StreamDelete(item.relation, item.row)))
        events.sort(key=lambda event: event[0])
        stream = [item for _, item in events]
        gone = {(inserts[position].relation, inserts[position].row) for position in retracted}
        rows = {name: set() for name in self.spec}
        for item in inserts:
            if (item.relation, item.row) not in gone:
                rows[item.relation].add(item.row)
        return {
            "chunks": chunked(stream, self.chunk_size),
            "insert_chunks": chunked(inserts, self.chunk_size),
            "items": len(stream),
            "rows": rows,
            "count": chain_count(rows, self.spec),
        }

    def build(self, inputs, rng):
        sampler = TurnstileReservoirJoin(JoinQuery.from_spec(self.name, self.spec), self.k, rng=rng)
        return BatchIngestor(sampler, chunk_size=self.chunk_size)

    def gate(self, stack, inputs, log):
        database = stack.sampler.index.database
        for name in self.spec:
            stored = set(database[name])
            if stored != inputs["rows"][name]:
                raise GateError(
                    f"stored {name} has {len(stored)} rows, the stream leaves "
                    f"{len(inputs['rows'][name])}"
                )
        size = min(self.k, inputs["count"])
        check_sample(stack.sampler.sample, size, self.spec, inputs["rows"], "reservoir")

    def trace_extras(self, inputs, plain, seed):
        # The tax divides the untraced turnstile pass by an insert-only pass
        # over the same inserts (the paper's sampler), both at their fastest.
        inserts_only = []
        for _ in plain:
            sampler = ReservoirJoin(JoinQuery.from_spec("insert-only", self.spec), self.k, rng=random.Random(seed))
            ingestor = BatchIngestor(sampler, chunk_size=self.chunk_size)
            start = time.perf_counter()
            for chunk in inputs["insert_chunks"]:
                ingestor.ingest_batch(chunk)
            inserts_only.append(time.perf_counter() - start)
        return {"core.turnstile.retraction_tax": loop_seconds(plain) / min(inserts_only)}


class ServeChain3(Workload):
    """Chain-3 inserts through a ``SampleServer``, with reads, saves and a
    restore."""

    name = "serve-chain3"
    passes = 40
    # 200 chunks a pass, so ten lie beyond the p95.  Readers accept a cut up
    # to 15 chunks old, so a pass takes 13 cuts among its 1000 reads: more
    # than 1%, so the read p99 is a cut.
    chunk_size = 10
    size = 2000
    domain = 250
    reads_per_boundary = 5
    read_k = 100
    staleness = 15
    save_every = 100

    def generate(self, seed, scale, scratch):
        stream = chain_stream(seed, scaled(self.size, scale, 4 * self.chunk_size), self.domain)
        chunks = chunked(stream, self.chunk_size)
        first: Dict[tuple, int] = {}
        for position, item in enumerate(stream):
            first.setdefault((item.relation, item.row), position)
        # counts[e] = exact join size after chunk e (epoch e).
        rows = {name: set() for name in self.spec}
        counts = [0]
        for chunk in chunks:
            for item in chunk:
                rows[item.relation].add(item.row)
            counts.append(chain_count(rows, self.spec))
        return {
            "chunks": chunks,
            "items": len(stream),
            "first": first,
            "counts": counts,
            "checkpoint": os.path.join(scratch, "serve.ckpt"),
        }

    def build(self, inputs, rng):
        sampler = ReservoirJoin(JoinQuery.from_spec(self.name, self.spec), self.k, rng=random.Random(rng.getrandbits(64)))
        ingestor = BatchIngestor(sampler, chunk_size=self.chunk_size)
        return SampleServer(ingestor, rng=random.Random(rng.getrandbits(64)))

    def drive(self, stack, inputs, ops, log):
        read = functools.partial(stack.sample, self.read_k, max_staleness=self.staleness)
        path = inputs["checkpoint"]
        save = functools.partial(stack.ingestor.save, path)
        reads = log["reads"] = []
        saved_bytes = 0
        last = len(inputs["chunks"])
        for epoch, chunk in enumerate(inputs["chunks"], 1):
            ops.call("chunk", stack.ingest_batch, chunk)
            for _ in range(self.reads_per_boundary):
                reads.append((epoch, ops.call("read", read)))
            if epoch % self.save_every == 0 or epoch == last:
                ops.call("save", save)
                saved_bytes += os.path.getsize(path)
        log["save_bytes"] = saved_bytes

    def finish(self, stack, inputs, ops, log):
        log["restored"] = ops.call("restore", BatchIngestor.restore, inputs["checkpoint"])

    def observe(self, stack, log):
        stats = stack.statistics()
        log["cache_hit_ratio"] = stats["snapshot_cache_hits"] / (
            stats["snapshot_cache_hits"] + stats["snapshots_taken"]
        )
        log["saved"] = stack.ingestor.sampler.reservoir.snapshot_state()

    def samplers(self, stack):
        return [stack.ingestor.sampler]

    def gate(self, stack, inputs, log):
        first, counts = inputs["first"], inputs["counts"]
        for epoch, result in log["reads"]:
            if result is None:
                raise GateError(f"a read at epoch {epoch} failed")
            latest = -1
            for row in result:
                for name, attrs in self.spec.items():
                    position = first.get((name, tuple(row.get(attr) for attr in attrs)))
                    if position is None:
                        raise GateError(f"read at epoch {epoch}: {row} is not a join result")
                    latest = max(latest, position)
            if len({tuple(sorted(row.items())) for row in result}) != len(result):
                raise GateError(f"read at epoch {epoch} holds a result twice")
            # The cut may be up to `staleness` epochs old, but must contain
            # every row it returned and the full min(read_k, |Q|) results.
            oldest = max(latest // self.chunk_size + 1, epoch - self.staleness)
            if not any(len(result) == min(self.read_k, counts[cut]) for cut in range(oldest, epoch + 1)):
                raise GateError(
                    f"read at epoch {epoch} returned {len(result)} results; no epoch in "
                    f"[{oldest}, {epoch}] has min({self.read_k}, |Q|) of that size"
                )
        restored = log["restored"]
        if restored is None or restored.sampler.reservoir.snapshot_state() != log["saved"]:
            raise GateError("the restored reservoir differs from the live one at the saved boundary")

    def trace_extras(self, inputs, plain, seed):
        reads = floors(plain, "read")
        return {
            "serve.read_p50_ms": percentile(reads, 0.50) * 1e3,
            "serve.read_p99_ms": percentile(reads, 0.99) * 1e3,
        }


WORKLOADS = {w.name: w for w in (InsertChain3(), Turnstile2Way(), ServeChain3())}


# --------------------------------------------------------------------------- #
# Passes
# --------------------------------------------------------------------------- #
#: The operations of the closed loop; ``restore`` runs after it.
LOOP_OPS = ("chunk", "read", "save")


def stack_seed(seed: int) -> int:
    """The seed of every stack a run builds; apart from the input seed."""
    return seed * 1000 + 1


def floors(records: List[dict], kind: str) -> List[float]:
    """Per operation of ``kind``, in loop order: its fastest time over the
    replica passes."""
    return [min(times) for times in zip(*(record["latencies"][kind] for record in records))]


def loop_seconds(records: List[dict]) -> float:
    """The closed loop's time, summed over the per-operation floors."""
    return sum(sum(floors(records, kind)) for kind in LOOP_OPS)


def sampler_counts(samplers) -> dict:
    return {
        "propagations": sum(s.propagations for s in samplers),
        "items_examined": sum(s.items_examined for s in samplers),
        "simulated": sum(s.simulated_stream_length for s in samplers),
        "deletes_applied": sum(getattr(s, "deletes_applied", 0) for s in samplers),
        "evictions": sum(getattr(s, "evictions", 0) for s in samplers),
        "refills": sum(getattr(s, "refills", 0) for s in samplers),
    }


def run_pass(workload: Workload, inputs: dict, seed: int, ops: Ops,
             recorder: Optional[Recorder] = None, checked: bool = False) -> dict:
    """One pass on a fresh stack.  A checked pass also runs the gate and
    records the final state's size and counters."""
    gc.collect()
    ops.latencies = defaultdict(list)
    log: dict = {}
    with patched(recorder, probes()) if recorder is not None else contextlib.nullcontext():
        start = time.perf_counter()
        stack = workload.build(inputs, random.Random(stack_seed(seed)))
        setup = time.perf_counter() - start
        if recorder is not None:
            recorder.active = True
        start = time.perf_counter()
        workload.drive(stack, inputs, ops, log)
        workload.finish(stack, inputs, ops, log)
        end = time.perf_counter()
        if recorder is not None:
            recorder.active = False
        workload.observe(stack, log)
    record = {"setup": setup, "pass_wall": end - start, "latencies": ops.latencies}
    if checked:
        workload.gate(stack, inputs, log)
        record["counts"] = sampler_counts(workload.samplers(stack))
        if recorder is None:
            record["state_mb"] = megabytes(sampler_memory_bytes(stack))
    # Keep the counters only: reads and restored stacks would stay alive
    # (and be scanned by the collector) through the later passes.
    record["log"] = {key: value for key, value in log.items() if isinstance(value, (int, float))}
    return record


@contextlib.contextmanager
def on_cpu(index: int):
    """Run the block on the ``index``-th CPU this process may use, in turn,
    then give it all of them back.  A no-op on one CPU or where affinity
    cannot be set."""
    if len(CPUS) < 2:
        yield
        return
    os.sched_setaffinity(0, {CPUS[index % len(CPUS)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, CPUS)


def timed_setup(workload: Workload, inputs: dict, seed: int) -> float:
    start = time.perf_counter()
    workload.build(inputs, random.Random(stack_seed(seed)))
    return time.perf_counter() - start


def prepare(workload: Workload, seed: int, scale: float, scratch: str, ops: Ops) -> dict:
    """Generate the inputs, hide them from the collector, and warm up.

    The warm-up pass runs the first quarter of the stream: enough to import,
    start and exercise every code path once.  Whatever a cold first measured
    pass still pays, the per-operation floors drop."""
    inputs = workload.generate(seed, scale, scratch)
    gc.collect()
    gc.freeze()
    chunks = inputs["chunks"]
    run_pass(workload, dict(inputs, chunks=chunks[: max(1, len(chunks) // 4)]), seed, ops)
    return inputs


def measure(workload: Workload, seed: int, scale: float, scratch: str, ops: Ops) -> dict:
    """The untraced run: every end-to-end metric."""
    inputs = prepare(workload, seed, scale, scratch, ops)
    setups: List[float] = []
    passes = []
    for index in range(workload.passes):
        with on_cpu(index):
            gc.collect()
            setups += [timed_setup(workload, inputs, seed) for _ in range(SETUP_REPEATS)]
            passes.append(run_pass(workload, inputs, seed, ops, checked=index == 0))
    chunks = floors(passes, "chunk")
    values = {
        "ingest_tps": inputs["items"] / loop_seconds(passes),
        "chunk_p50_ms": percentile(chunks, 0.50) * 1e3,
        "chunk_p95_ms": percentile(chunks, 0.95) * 1e3,
        "setup_s": statistics.median(setups + [record["setup"] for record in passes]),
        "state_mb": passes[0]["state_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def trace(workload: Workload, seed: int, scale: float, scratch: str, ops: Ops, spans_path: str) -> dict:
    """The traced run: untraced and traced replicas alternate; the per-layer
    metrics come from the first traced pass."""
    inputs = prepare(workload, seed, scale, scratch, ops)

    def pair(index: int):
        recorder = Recorder()
        with on_cpu(index):
            plain = run_pass(workload, inputs, seed, ops)
            return plain, run_pass(workload, inputs, seed, ops, recorder=recorder, checked=index == 0), recorder

    pairs = [pair(index) for index in range(TRACE_PAIRS)]
    plain = [record for record, _, _ in pairs]
    traced = [record for _, record, _ in pairs]
    first_recorder = pairs[0][2]
    values = layer_metrics(traced[0], first_recorder)
    values.update(workload.trace_extras(inputs, plain, stack_seed(seed)))
    values["bench.trace_overhead"] = (
        min(record["pass_wall"] for record in traced) / min(record["pass_wall"] for record in plain)
    )
    write_spans(spans_path, workload.name, seed, first_recorder)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def layer_metrics(record: dict, recorder: Recorder) -> dict:
    """The per-layer metrics of one traced pass.  Every ``<span>.calls`` and
    ``<span>.self_s`` comes straight from the spans; a layer the pass never
    entered reads 0."""
    summary = summarize(recorder.spans)
    values: dict = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            values[name] = summary.get(span, {}).get(field, 0 if field == "calls" else 0.0)
    counts, log = record["counts"], record["log"]
    refill_draws = values["index.sample.calls"]
    unattributed = record["pass_wall"] - top_level_seconds(recorder.spans)
    values.update({
        "index.insert_rows.rows": recorder.weights.get("index.insert_rows", 0),
        "index.propagations": counts["propagations"],
        "core.reservoir.items_examined": counts["items_examined"],
        "core.reservoir.examined_ratio": counts["items_examined"] / counts["simulated"] if counts["simulated"] else 0.0,
        "core.turnstile.deletes_applied": counts["deletes_applied"],
        "core.turnstile.evictions": counts["evictions"],
        "core.turnstile.refills": counts["refills"],
        "core.turnstile.refill_accept_ratio": counts["refills"] / refill_draws if refill_draws else 0.0,
        "core.turnstile.retraction_tax": 0.0,
        "ingest.checkpoint.save.bytes": log.get("save_bytes", 0),
        "serve.cache_hit_ratio": log.get("cache_hit_ratio", 0.0),
        "serve.read_p50_ms": 0.0,
        "serve.read_p99_ms": 0.0,
        "bench.unattributed_s": unattributed,
        "bench.unattributed_share": unattributed / record["pass_wall"],
    })
    return values


def write_spans(path: str, workload: str, seed: int, recorder: Recorder) -> None:
    origin = min((span.start for span in recorder.spans), default=0.0)
    document = {
        "workload": workload,
        "seed": seed,
        "pass": 1,
        "fields": ["id", "parent", "op", "name", "start_s", "end_s"],
        "spans": [
            [span.id, span.parent, span.op, span.name, span.start - origin, span.end - origin]
            for span in sorted(recorder.spans, key=lambda span: span.start)
        ],
        "summary": summarize(recorder.spans),
    }
    with open(path, "w") as handle:
        json.dump(document, handle)


# --------------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------------- #
def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def write_suite(path: str, args, results: Dict[str, dict]) -> None:
    document = {
        "seed": args.seed,
        "scale": args.scale,
        "trace": bool(args.trace),
        "environment": environment(),
        "workloads": results,
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def print_result(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} {metric['value']!r} {metric['unit']}")


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    ops = Ops()
    spans_path = os.path.join(os.path.dirname(os.path.abspath(args.out)), f"BENCH_trace_{workload.name}.json")
    metrics: dict = {}
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=os.getcwd()) as scratch:
        try:
            if args.trace:
                metrics = trace(workload, args.seed, args.scale, scratch, ops, spans_path)
            else:
                metrics = measure(workload, args.seed, args.scale, scratch, ops)
        except GateError as error:
            print(f"bench: {workload.name}: correctness gate failed: {error}", file=sys.stderr)
    correct = bool(metrics) and ops.failed == 0
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics if correct else {},
    }
    write_suite(args.out, args, {workload.name: result})
    print_result(workload.name, result)
    print(json.dumps(result))
    return 0 if correct else 1


def run_suite(args) -> int:
    """Every workload in a child process of its own, then one suite file."""
    results: Dict[str, dict] = {}
    for name in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--trace", str(args.trace), "--scale", str(args.scale), "--out", args.out,
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        print_result(name, results[name])
    write_suite(args.out, args, results)
    summary = {
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": {
            f"{name}:{metric}": value
            for name, result in results.items()
            for metric, value in result["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload (default: all, each in a child process)")
    parser.add_argument("--seed", type=int, default=1, help="input and pass seed (default 1)")
    parser.add_argument("--seconds", type=float, help="accepted for runners that pass a time budget; ignored, the pass count is fixed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1), help="1: report per-layer metrics from a traced run")
    parser.add_argument("--scale", type=float, default=1.0, help="stream size factor; below 1 for smoke runs only")
    parser.add_argument("--out", default="BENCH_suite.json", help="where to write the suite file (default BENCH_suite.json)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_suite(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
