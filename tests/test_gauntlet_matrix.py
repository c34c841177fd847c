"""The full workload gauntlet: every scenario through every ingestion mode.

Marked ``gauntlet`` and deselected from the default run: each cell carries
chi-square trials, so the matrix takes tens of seconds.  ``make
gauntlet-smoke`` runs it at REPRO_GAUNTLET_SCALE=0.25 (smaller streams,
floor-level trial counts); ``make gauntlet`` runs it at full strength.
"""

from __future__ import annotations

import pytest

from tests.gauntlet.matrix import MODES, run_gauntlet
from tests.gauntlet.scenarios import SCENARIO_BUILDERS

pytestmark = pytest.mark.gauntlet


@pytest.fixture(scope="module")
def report():
    # Scale comes from REPRO_GAUNTLET_SCALE (1.0 when unset); the config
    # derives matching chi-square trial counts via GauntletConfig.for_scale.
    return run_gauntlet()


def test_every_cell_passes(report):
    assert report.passed, "\n" + report.render() + "\n\n" + "\n\n".join(
        f"{cell.scenario} × {cell.mode}: {cell.reason}"
        for cell in report.failures()
    )


def test_matrix_meets_the_coverage_floor(report):
    assert len(report.scenarios) >= 4
    assert len(report.modes) >= 5
    assert len(report.scenarios) == len(SCENARIO_BUILDERS)
    assert list(report.modes) == list(MODES)


def test_every_non_skipped_cell_asserts_a_declared_tier(report):
    declared = {
        "bit-identical",
        "exact-set+chi-square",
        "epoch-exact-set+bit-identical",
    }
    for cell in report.cells:
        if cell.status == "skip":
            assert cell.reason, (cell.scenario, cell.mode)
            continue
        assert cell.status == "pass"
        assert cell.tier in declared, (cell.scenario, cell.mode, cell.tier)
        if cell.tier == "exact-set+chi-square":
            assert cell.p_value is not None
            assert cell.p_value > report.config["p_threshold"]


def test_statistical_cells_ran_at_full_chi_power(report):
    # At any scale the for_scale profile keeps trials >= the chi floor, so
    # no statistical cell may silently degrade to bare exact-set.
    assert report.config["trials"] >= 20
    for cell in report.cells:
        assert cell.tier != "exact-set", (cell.scenario, cell.mode)
