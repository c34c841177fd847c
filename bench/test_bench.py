"""Checks of the benchmark itself; not part of the tier-1 suite.

Run from the repository root::

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import compare
from tracing import Probe, Recorder, Span, patched, self_times, summarize, top_level_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """Runs ``run.py`` at smoke scale, each distinct call once per module."""
    directory = tmp_path_factory.mktemp("runs")
    results = {}

    def run(workload: str, trace: int, repeat: int = 0):
        key = (workload, trace, repeat)
        if key not in results:
            out = directory / f"{workload}-{trace}-{repeat}.json"
            child = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "5", "--scale", "0.02", "--trace", str(trace),
                 "--out", str(out)],
                cwd=directory, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
            )
            assert child.returncode == 0, child.stderr
            results[key] = json.loads(child.stdout.strip().splitlines()[-1])
        return results[key]

    return run


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_every_metric_with_its_unit(bench, workload, trace, kind):
    result = bench(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {entry["name"]: entry["unit"] for entry in BENCHMARK[kind]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_the_same_seed(bench, workload):
    first, second = bench(workload, 1), bench(workload, 1, repeat=1)
    counted = [entry["name"] for entry in BENCHMARK["per_layer"] if entry["unit"] in ("count", "bytes")]
    assert {name: first["metrics"][name]["value"] for name in counted} == {
        name: second["metrics"][name]["value"] for name in counted
    }


def test_insert_chain3_bypasses_the_recount(bench):
    # Every probe is installed on every workload, so the zero below means the
    # call was wrapped on insert-chain3 and never made; turnstile-2way shows
    # the same probe firing.
    metrics = bench("insert-chain3", 1)["metrics"]
    assert metrics["relational.count_results.calls"]["value"] == 0
    assert metrics["index.insert_rows.calls"]["value"] > 0
    assert bench("turnstile-2way", 1)["metrics"]["relational.count_results.calls"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_cover_the_traced_pass(bench, workload):
    """The bench's own loop outside every span stays within 5% of the pass."""
    assert bench(workload, 1)["metrics"]["bench.unattributed_share"]["value"] <= 0.05


def test_fails_without_the_program(tmp_path):
    """Outside a checkout (only BENCHMARK.json and the benchmark's files)
    the benchmark exits non-zero without printing a result."""
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert child.stdout.strip() == ""


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9].
    spans = [
        Span(3, 1, 1, "g", 2.0, 3.0),
        Span(1, 0, 1, "a", 1.0, 4.0),
        Span(2, 0, 1, "b", 5.0, 9.0),
        Span(0, None, 1, "root", 0.0, 10.0),
        Span(4, None, 2, "a", 11.0, 12.5),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 4.0, 3: 1.0, 4: 1.5}
    summary = summarize(spans)
    assert summary["a"] == {"calls": 2, "self_s": 3.5, "total_s": 4.5}
    assert summary["root"]["self_s"] == 3.0
    assert top_level_seconds(spans) == 11.5


class _Base:
    def inherited(self):
        return "inherited"


class _Target(_Base):
    def method(self, value):
        return self.inherited() + str(value)

    @classmethod
    def build(cls):
        return cls()


def test_patched_records_nested_spans_and_restores_every_attribute():
    module = types.ModuleType("fake_layer")
    module.helper = lambda rows: len(rows)
    originals = (_Target.__dict__["method"], _Target.__dict__["build"], module.helper)
    recorder = Recorder()
    probes = [
        Probe(_Target, "method", "outer"),
        Probe(_Target, "build", "build"),
        Probe(_Target, "inherited", "inner"),
        Probe(module, "helper", "helper", weigh=lambda args: len(args[0])),
    ]
    with patched(recorder, probes):
        target = _Target.build()  # inactive: no span
        recorder.active = True
        assert target.method(1) == "inherited1"
        assert module.helper([1, 2, 3]) == 3
        recorder.active = False
    assert (_Target.__dict__["method"], _Target.__dict__["build"], module.helper) == originals
    assert "inherited" not in _Target.__dict__
    names = {span.name: span for span in recorder.spans}
    assert set(names) == {"outer", "inner", "helper"}
    assert names["inner"].parent == names["outer"].id
    assert names["inner"].op == names["outer"].op != names["helper"].op
    assert recorder.weights["helper"] == 3


class _Child(_Target):
    def method(self, value):
        return super().method(value)


def test_a_call_into_the_same_span_name_stays_one_span():
    recorder = Recorder()
    with patched(recorder, [Probe(_Child, "method", "apply"), Probe(_Target, "method", "apply")]):
        recorder.active = True
        _Child().method(2)
        _Target().method(3)
    assert [span.name for span in recorder.spans] == ["apply", "apply"]
    assert [span.op for span in recorder.spans] == [1, 2]


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 1.02 for v in steady], 0.10, True) == "unchanged"
    assert compare.verdict(steady, [v * 0.8 for v in steady], 0.10, True) == "worse"
    assert compare.verdict(steady, [v * 1.3 for v in steady], 0.10, True) == "better"
    assert compare.verdict(steady, [v * 1.3 for v in steady], 0.10, False) == "worse"
    wide = [70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(steady, wide, 0.10, True) == "unresolved"
    assert compare.verdict(steady, [v * 2 for v in wide], 0.10, True) == "better"
    setup = [0.0002, 0.00021, 0.00019]
    assert compare.verdict(setup, [v * 2 for v in setup], 0.25, False, floor=0.001) == "unchanged"
    assert compare.verdict(setup, [v * 2 for v in setup], 0.25, False) == "worse"
    noisy_setup = [0.0001, 0.0003, 0.0002]
    assert compare.verdict(setup, noisy_setup, 0.25, False, floor=0.001) == "unchanged"
    assert compare.verdict(setup, noisy_setup, 0.25, False) == "unresolved"


def test_claim_needs_nine_of_ten_pairs_and_a_gap_beyond_the_spread():
    base = [100.0 + i for i in range(10)]
    assert compare.claim_holds(base, [v + 20 for v in base], True)
    one_loss = [v + 20 for v in base[:8]] + [50.0, 50.0]
    assert not compare.claim_holds(base, one_loss, True)
    assert not compare.claim_holds(base, [v + 2 for v in base], True)


def test_compare_rows_follow_benchmark_json():
    metric = BENCHMARK["end_to_end"][0]["name"]
    base = {(WORKLOADS[0], metric): [10.0, 10.1, 9.9]}
    head = {(WORKLOADS[0], metric): [10.0, 10.05, 9.95]}
    rows = compare.compare(base, head, BENCHMARK)
    assert len(rows) == len(WORKLOADS) * len(BENCHMARK["end_to_end"])
    found = {(row["workload"], row["metric"]): row["verdict"] for row in rows}
    assert found[(WORKLOADS[0], metric)] == "unchanged"
    assert found[(WORKLOADS[1], metric)] == "missing"
