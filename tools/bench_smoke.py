#!/usr/bin/env python
"""Smoke-run the five ingestion/serving-seam benchmarks at tiny scale.

CI cannot gate on benchmark *ratios* — on a shared 1-CPU runner the
measured speedups are noise (the bench-box convention: gate on execution,
report ratios informationally).  What CI *can* gate on is that every
benchmark still runs end to end and emits a well-formed ``BENCH_*.json``:
imports resolve, streams build, samplers ingest, internal bit-identity and
exact-count assertions hold, and the report schema the README documents is
intact.

Each benchmark is executed as a subprocess with ``REPRO_BENCH_SCALE`` (a
proportional shrink of stream lengths and the boundary-sensitive knobs —
default 0.02, ~60 s total) and one repeat per mode; the emitted JSON is then
loaded and checked for its headline keys.  The BENCH files land in the
working directory exactly as a full ``make bench`` would write them, so a CI
job can upload them as artifacts.

Usage:  python tools/bench_smoke.py [--scale 0.02]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: benchmark script -> (emitted report, keys that must be present and
#: non-null).
BENCHMARKS = {
    "benchmarks/bench_batch_ingest.py": (
        "BENCH_batch_ingest.json",
        ("benchmark", "n_tuples", "modes", "best_speedup", "cyclic"),
    ),
    "benchmarks/bench_async.py": (
        "BENCH_async.json",
        ("benchmark", "n_tuples", "async_transport"),
    ),
    "benchmarks/bench_gauntlet.py": (
        "BENCH_gauntlet.json",
        ("benchmark", "scenarios", "modes", "matrix", "cells_passed"),
    ),
    "benchmarks/bench_serving.py": (
        "BENCH_serving.json",
        (
            "benchmark",
            "n_tuples",
            "modes",
            "reader_throughput_per_s",
            "p99_read_latency_ms",
            "writer_wall_seconds",
        ),
    ),
    "benchmarks/bench_turnstile.py": (
        "BENCH_turnstile.json",
        (
            "benchmark",
            "n_tuples",
            "n_retractions",
            "retraction_fraction",
            "surviving_check",
            "modes",
            "per_delete_us",
        ),
    ),
}

#: report -> {mode row -> fields that must be present and non-null}.  Mode
#: rows carry the *measured* figures (no placeholders allowed).  Ratios are
#: never thresholded here — they stay informational.
MODE_FIELDS = {
    "BENCH_serving.json": {
        "writer_baseline": ("writer_wall_seconds", "tuples_per_second"),
        "served_threads": (
            "writer_wall_seconds",
            "writer_overhead_over_baseline",
            "reads_in_window",
            "reader_throughput_per_s",
            "p50_read_latency_ms",
            "p99_read_latency_ms",
            "epochs",
            "snapshots_taken",
        ),
    },
    "BENCH_turnstile.json": {
        "insert_only_batched": ("seconds", "tuples_per_second"),
        "turnstile_batched": (
            "seconds",
            "tuples_per_second",
            "retraction_tax",
            "deletes_applied",
            "evictions",
            "refills",
        ),
        "windowed_batched": ("seconds", "tuples_per_second", "expirations", "window"),
    },
}


#: report -> {top-level section -> fields that must be present and
#: non-null}: the measured figures of reports without mode rows.
SECTION_FIELDS = {
    "BENCH_batch_ingest.json": {
        "cyclic": ("per_tuple_seconds", "bulk_seconds", "speedup"),
    },
    "BENCH_async.json": {
        "async_transport": (
            "sync_seconds",
            "async_seconds",
            "transport_hidden_fraction",
        ),
    },
}


#: report -> {mode row -> counts that must be positive}: a mode that
#: measured nothing reports no figure worth uploading.  A served run with no
#: read inside the writer's window has no read latency at all.
MODE_POSITIVE = {
    "BENCH_serving.json": {"served_threads": ("reads_in_window",)},
}


def run_one(script: str, report: str, required_keys, scale: float) -> None:
    env = dict(os.environ)
    env["REPRO_BENCH_SCALE"] = str(scale)
    env["REPRO_BENCH_REPEATS"] = "1"
    env["PYTHONPATH"] = f"src{os.pathsep}{env['PYTHONPATH']}" if env.get("PYTHONPATH") else "src"
    print(f"[bench-smoke] {script} (scale={scale}) ...", flush=True)
    completed = subprocess.run(
        [sys.executable, script], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"[bench-smoke] FAILED: {script} exited {completed.returncode}")
    check_report(script, report, required_keys)


def check_report(script: str, report: str, required_keys) -> None:
    path = REPO_ROOT / report
    if not path.exists():
        raise SystemExit(f"[bench-smoke] FAILED: {script} did not emit {report}")
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise SystemExit(f"[bench-smoke] FAILED: {report} is not valid JSON: {error}")
    missing = [key for key in required_keys if document.get(key) is None]
    if missing:
        raise SystemExit(f"[bench-smoke] FAILED: {report} is missing keys {missing}")
    for section, fields in SECTION_FIELDS.get(report, {}).items():
        gaps = [field for field in fields if document[section].get(field) is None]
        if gaps:
            raise SystemExit(
                f"[bench-smoke] FAILED: {report} section {section!r} is "
                f"missing measured fields {gaps}"
            )
    # "modes" is a list of row dicts in the seam benchmarks but a list of
    # mode *names* in the gauntlet report; only dict rows carry fields.
    rows = {
        row.get("mode"): row
        for row in document.get("modes") or []
        if isinstance(row, dict)
    }
    for mode, fields in MODE_FIELDS.get(report, {}).items():
        row = rows.get(mode)
        if row is None:
            raise SystemExit(
                f"[bench-smoke] FAILED: {report} has no {mode!r} mode row"
            )
        gaps = [field for field in fields if row.get(field) is None]
        if gaps:
            raise SystemExit(
                f"[bench-smoke] FAILED: {report} mode {mode!r} is missing "
                f"measured fields {gaps}"
            )
    for mode, fields in MODE_POSITIVE.get(report, {}).items():
        empty = [field for field in fields if not rows[mode][field] > 0]
        if empty:
            raise SystemExit(
                f"[bench-smoke] FAILED: {report} mode {mode!r} measured "
                f"nothing: {empty} not positive"
            )
    print(f"[bench-smoke] ok: {report} ({path.stat().st_size} bytes)", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", type=float, default=0.02,
        help="REPRO_BENCH_SCALE passed to every benchmark (default 0.02)",
    )
    args = parser.parse_args()
    for script, (report, required_keys) in BENCHMARKS.items():
        run_one(script, report, required_keys, args.scale)
    print(f"[bench-smoke] all {len(BENCHMARKS)} seam benchmarks executed and "
          "emitted valid JSON (ratios at this scale are informational only)")


if __name__ == "__main__":
    main()
