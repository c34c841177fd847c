"""Scenario×mode conformance matrix with per-cell timings.

Runs the workload gauntlet (:mod:`tests.gauntlet`) — every realistic
workload scenario through every ingestion mode — and emits the structured
per-cell report as ``BENCH_gauntlet.json``.  Unlike the other seam
benchmarks this one has no headline ratio at all: the deliverable IS the
matrix.  Each cell carries

* its equivalence **tier** and pass/fail/skip **status** — the run aborts
  with a non-zero exit if any cell fails, so a smoke run still gates on
  conformance;
* the **serial wall clock** of one representative run, unredacted.  Per
  the 1-CPU bench-box convention it gates nothing; it is reported raw so a
  reader can recompute any ratio under their own deployment assumptions.

``REPRO_BENCH_SCALE`` shrinks the scenario streams *and* the chi-square
trial counts together; below the validity floor the statistical cells
degrade to their exact-set half (full-power uniformity gating lives in
``make gauntlet-smoke`` and the slow test suite, not here).

Emits ``BENCH_gauntlet.json`` in the current working directory.

Run with:  python benchmarks/bench_gauntlet.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

# The gauntlet lives with the tests: put the repository root on the path.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.gauntlet.matrix import GauntletConfig, ModeMatrix  # noqa: E402
from tests.gauntlet.scenarios import build_scenarios  # noqa: E402

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
#: Chi-square trials shrink with scale and may drop below the validity
#: floor — the bench then asserts exact-set/bit tiers only (see module doc).
TRIALS = int(48 * SCALE)

METHODOLOGY = (
    "Each cell asserts its mode's equivalence tier (bit-identical, "
    "exact-set+chi-square, or epoch-exact-set+bit-identical) against the scenario's "
    "ground-truth universe, then reports the measured wall clock of one "
    "representative run. 1-CPU bench-box convention: no ratio is gated; "
    "walls are raw."
)


def main() -> None:
    scenarios = build_scenarios(SCALE)
    config = GauntletConfig(trials=TRIALS, scale=SCALE)
    report = ModeMatrix(scenarios, config).run()

    print(report.render())
    for cell in report.failures():
        print(f"FAILED cell ({cell.scenario}, {cell.mode}): {cell.reason}")

    document = report.as_dict()
    document["benchmark"] = "gauntlet"
    document["scale"] = SCALE
    document["methodology"] = METHODOLOGY
    with open("BENCH_gauntlet.json", "w") as handle:
        json.dump(document, handle, indent=2)
    print(f"wrote BENCH_gauntlet.json ({document['cells_passed']} passed, "
          f"{document['cells_failed']} failed, "
          f"{document['cells_skipped']} skipped)")
    if report.failures():
        sys.exit(1)


if __name__ == "__main__":
    main()
