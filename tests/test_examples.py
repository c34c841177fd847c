"""The example scripts must run end to end (deliverable sanity check)."""

import runpy

import pytest


def run_example(name, capsys):
    """Execute an example script as __main__ and return its stdout."""
    runpy.run_path(f"examples/{name}", run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "script, expectations",
    [
        ("quickstart.py", ["current reservoir", "uniform samples from the current join"]),
        ("predicate_sampling.py", ["classic RS", "RSWP", "speed-up"]),
    ],
)
def test_fast_examples(script, expectations, capsys):
    output = run_example(script, capsys)
    for text in expectations:
        assert text in output


@pytest.mark.parametrize(
    "script, expectations",
    [
        ("social_graph_patterns.py", ["paths:", "triangles:", "busiest path midpoints"]),
        ("streaming_warehouse.py", ["exact join size", "category share", "estimation error"]),
    ],
)
def test_slow_examples(script, expectations, capsys):
    output = run_example(script, capsys)
    for text in expectations:
        assert text in output
