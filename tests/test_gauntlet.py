"""Gauntlet machinery: registry, config, skip logic, report plumbing.

Fast tier-1 tests.  Matrix runs here use ``GauntletConfig(trials=0)`` — the
statistical cells degrade to their exact-set half (see
``tests.gauntlet.matrix.MIN_CHI_TRIALS``), which is deterministic and quick.
The full chi-square-powered matrix lives in tests/test_gauntlet_matrix.py
behind the ``gauntlet`` marker.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro import JoinQuery, ReservoirJoin, StreamTuple
from tests.gauntlet.matrix import (
    CHUNK_SIZE,
    K,
    MIN_CHI_TRIALS,
    MODES,
    GauntletConfig,
    ModeMatrix,
    run_gauntlet,
)
from tests.gauntlet.scenarios import SCENARIO_BUILDERS, Scenario, build_scenarios

TINY = 0.05  # scenario scale for machinery tests (generator floors apply)


@pytest.fixture(scope="module")
def tiny_scenarios():
    return build_scenarios(TINY)


@pytest.fixture(scope="module")
def fast_report(tiny_scenarios):
    """One exact-set-only run of the whole matrix, shared by the assertions."""
    matrix = ModeMatrix(tiny_scenarios, GauntletConfig(trials=0, scale=TINY))
    return matrix.run()


# ---------------------------------------------------------------------- #
# Scenario registry
# ---------------------------------------------------------------------- #
def test_registry_builds_every_scenario(tiny_scenarios):
    assert [s.name for s in tiny_scenarios] == list(SCENARIO_BUILDERS)
    kinds = {s.name: s.kind for s in tiny_scenarios}
    assert kinds["graph-triangle"] == "cyclic"
    assert kinds["strings-predicate"] == "predicate"
    assert all(s.stream for s in tiny_scenarios)
    assert all(s.universe_size > 0 for s in tiny_scenarios)


def test_scenario_summary_is_json_serialisable(tiny_scenarios):
    for scenario in tiny_scenarios:
        summary = scenario.summary()
        assert summary["stream_tuples"] == len(scenario.stream)
        assert summary["universe_size"] == scenario.universe_size
        json.dumps(summary)


def test_build_scenarios_rejects_unknown_names_and_bad_scale():
    with pytest.raises(KeyError):
        build_scenarios(TINY, names=["tpcds-qx", "nope"])
    with pytest.raises(ValueError):
        build_scenarios(0)


def test_scenario_validates_kind_and_universe():
    with pytest.raises(ValueError):
        Scenario(
            name="bad", kind="mystery", query=None, stream=[],
            make_sampler=lambda k, rng: None, universe=[{"x": 1}],
        )
    with pytest.raises(ValueError):
        Scenario(
            name="empty", kind="predicate", query=None, stream=[],
            make_sampler=lambda k, rng: None, universe=[],
        )


def test_scenario_builders_are_reproducible():
    first = SCENARIO_BUILDERS["graph-star3"](TINY)
    second = SCENARIO_BUILDERS["graph-star3"](TINY)
    assert first.stream == second.stream
    assert first.universe == second.universe


# ---------------------------------------------------------------------- #
# Config
# ---------------------------------------------------------------------- #
def test_for_scale_floors_trials_at_chi_square_validity():
    assert GauntletConfig.for_scale(1.0).trials == 48
    assert GauntletConfig.for_scale(0.01).trials == MIN_CHI_TRIALS
    assert GauntletConfig.for_scale(2.0).trials == 96


def test_chi_sample_size_is_bounded_by_the_universe():
    # A reservoir as large as the universe samples every result in every
    # trial, so its chi-square reads p = 1 and cannot reject.
    cfg = GauntletConfig()
    assert [cfg.chi_sample_size(size) for size in (1, 2, 3, 5, 6, 20)] == [0, 1, 1, 2, 3, 10]
    assert cfg.chi_sample_size(21) == K
    assert cfg.chi_sample_size(100) == K
    assert cfg.chi_sample_size(1600) == 200
    for size in range(1, 400):
        assert cfg.chi_sample_size(size) < size


def test_one_result_universe_reports_the_exact_set_tier():
    query = JoinQuery.from_spec("one", {"R": ["a", "b"], "S": ["b", "c"]})
    stream = [StreamTuple("R", (1, 2)), StreamTuple("S", (2, 3))]
    scenario = Scenario(
        name="one-result", kind="acyclic", query=query, stream=stream,
        make_sampler=lambda k, rng: ReservoirJoin(query, k, rng=rng),
        universe=[{"a": 1, "b": 2, "c": 3}],
    )
    matrix = ModeMatrix([scenario], GauntletConfig(trials=MIN_CHI_TRIALS), modes=["batched"])
    cell = matrix.run().cell("one-result", "batched")
    assert cell.status == "pass", cell.reason
    assert cell.tier == "exact-set" and cell.p_value is None


def test_config_as_dict_round_trips_every_field():
    # Two settable fields; the fixed knobs are module constants, still
    # reported so a BENCH_gauntlet.json names every value a run used.
    cfg = GauntletConfig(trials=7, scale=0.5)
    assert {f.name for f in dataclasses.fields(GauntletConfig)} == {"trials", "scale"}
    assert cfg.as_dict() == {
        "k": K, "chunk_size": CHUNK_SIZE, "trials": 7,
        "p_threshold": 0.002, "seed": 2024, "scale": 0.5,
    }


# ---------------------------------------------------------------------- #
# Matrix runs (exact-set profile)
# ---------------------------------------------------------------------- #
def test_unknown_mode_is_rejected(tiny_scenarios):
    with pytest.raises(KeyError):
        ModeMatrix(tiny_scenarios[:1], modes=["pertuple", "warp"])


def test_run_cell_rejects_unknown_mode_upfront(tiny_scenarios, tmp_path):
    # Regression: a typo'd mode used to surface as a KeyError traceback
    # formatted into a "fail" cell; it must raise clearly, naming the
    # valid modes, before any scenario work starts.
    matrix = ModeMatrix(tiny_scenarios[:1], GauntletConfig(trials=0, scale=TINY))
    with pytest.raises(KeyError) as excinfo:
        matrix.run_cell(tiny_scenarios[0], "shraded", str(tmp_path))
    message = str(excinfo.value)
    assert "unknown mode 'shraded'" in message
    for mode in MODES:
        assert mode in message


def test_fast_matrix_passes_with_exact_set_tiers(fast_report):
    assert fast_report.passed, fast_report.render()
    for cell in fast_report.cells:
        if cell.status == "skip":
            continue
        assert cell.tier in (
            "exact-set",
            "bit-identical",
            "epoch-exact-set+bit-identical",
        ), (cell.scenario, cell.mode, cell.tier)
        assert cell.p_value is None  # trials=0: no chi-square anywhere


def test_structural_skips_carry_reasons(fast_report):
    cell = fast_report.cell("strings-predicate", "turnstile")
    assert cell.status == "skip"
    assert "predicate" in cell.reason
    cell = fast_report.cell("graph-triangle", "turnstile")
    assert cell.status == "skip"
    assert "acyclic" in cell.reason
    assert fast_report.cell("graph-triangle", "batched").status == "pass"


def test_checkpoint_column_covers_every_durable_mode(fast_report):
    covered = set()
    for scenario in (s["name"] for s in fast_report.scenarios):
        cell = fast_report.cell(scenario, "checkpoint")
        assert cell.status == "pass"
        assert cell.detail["cut_at_tuple"] % fast_report.config["chunk_size"] == 0
        covered.update(cell.detail["covered"])
    assert covered == {"batch", "windowed"}


def test_served_column_probes_interior_epochs_everywhere(fast_report):
    # Satellite: every scenario — joins and the predicate stream alike —
    # is read through the server mid-stream at >= 2 epochs, with the
    # earliest snapshot re-read afterwards to prove isolation.
    for scenario in (s["name"] for s in fast_report.scenarios):
        cell = fast_report.cell(scenario, "served")
        assert cell.status == "pass", (scenario, cell.reason)
        assert cell.tier == "epoch-exact-set+bit-identical"
        epochs = cell.detail["epochs_checked"]
        assert len(epochs) >= 2, (scenario, epochs)
        assert epochs[-1] == cell.detail["final_epoch"]
        assert epochs[0] < cell.detail["final_epoch"]  # a true interior probe
        assert cell.detail["isolation_reread"] is True


def test_report_counts_and_dict_shape(fast_report):
    counts = fast_report.counts()
    assert counts["pass"] + counts["fail"] + counts["skip"] == len(
        fast_report.cells
    )
    assert len(fast_report.cells) == len(SCENARIO_BUILDERS) * len(MODES)
    as_dict = fast_report.as_dict()
    assert set(as_dict["matrix"]) == set(SCENARIO_BUILDERS)
    assert all(set(row) == set(MODES) for row in as_dict["matrix"].values())
    assert as_dict["cells_failed"] == 0
    json.dumps(as_dict)


def test_render_draws_one_row_per_scenario(fast_report):
    lines = fast_report.render().splitlines()
    assert len(lines) == len(SCENARIO_BUILDERS) + 2  # header + rows + counts
    assert "0 failed" in lines[-1]
    assert "–" in fast_report.render()  # the structural skips


def test_report_cell_lookup_raises_on_unknown_pair(fast_report):
    with pytest.raises(KeyError):
        fast_report.cell("tpcds-qx", "warp")


def test_failures_land_in_the_report_not_as_exceptions(tiny_scenarios):
    scenario = tiny_scenarios[0]
    # Doctor the ground truth: every exact-set check must now report "fail".
    doctored = dataclasses.replace(
        scenario, universe=scenario.universe[:-1] + [{"impossible": object()}]
    )
    matrix = ModeMatrix(
        [doctored], GauntletConfig(trials=0, scale=TINY), modes=["pertuple"]
    )
    report = matrix.run()
    cell = report.cell(scenario.name, "pertuple")
    assert cell.status == "fail"
    assert not report.passed
    assert report.failures() == [cell]
    assert "exact-set mismatch" in cell.reason


def test_broken_sampler_reports_traceback_instead_of_raising(tiny_scenarios):
    scenario = tiny_scenarios[0]
    broken = dataclasses.replace(
        scenario, make_sampler=lambda k, rng: (_ for _ in ()).throw(RuntimeError("boom"))
    )
    matrix = ModeMatrix(
        [broken], GauntletConfig(trials=0, scale=TINY), modes=["batched"]
    )
    cell = matrix.run().cell(scenario.name, "batched")
    assert cell.status == "fail"
    assert "RuntimeError" in cell.reason


def test_run_gauntlet_scales_from_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_GAUNTLET_SCALE", str(TINY))
    report = run_gauntlet(
        names=["graph-star3"], modes=["batched"], config=GauntletConfig(trials=0)
    )
    assert report.passed, report.render()
    assert [s["name"] for s in report.scenarios] == ["graph-star3"]
    assert report.modes == ["batched"]


def test_chi_square_kicks_in_at_the_trial_floor(tiny_scenarios):
    # A single statistical cell at exactly MIN_CHI_TRIALS: the tier upgrades
    # and a p-value is recorded.  graph-star3 is the cheapest join scenario.
    scenario = next(s for s in tiny_scenarios if s.name == "graph-star3")
    matrix = ModeMatrix(
        [scenario],
        GauntletConfig(trials=MIN_CHI_TRIALS, scale=TINY),
        modes=["batched"],
    )
    cell = matrix.run().cell("graph-star3", "batched")
    assert cell.status == "pass", cell.reason
    assert cell.tier == "exact-set+chi-square"
    assert cell.p_value is not None and cell.p_value > 0
