"""The committed checkpoint fixtures are what their recipes write.

``tests/data/regenerate.py`` holds one recipe per fixture.  A fixture that
drifts from its recipe (hand-edited, or written by other code) fails here,
so a format change regenerates the fixtures instead of converting them.
"""

from __future__ import annotations

import pytest

from repro.ingest.checkpoint import CODEC, FORMAT_VERSION, MAGIC

from tests.data.regenerate import DATA, RECIPES, build, fixture_path


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_fixture_state_equals_a_fresh_run_of_its_recipe(name):
    path = fixture_path(name)
    version = int.from_bytes(path.read_bytes()[len(MAGIC):len(MAGIC) + 4], "big")
    assert version == FORMAT_VERSION
    document = CODEC.load(path, expected_kind="batch")
    assert document["state"] == build(name).snapshot_state()


def test_every_fixture_but_the_refused_one_has_a_recipe():
    names = {path.name for path in DATA.glob("*.checkpoint")}
    assert names == {fixture_path(name).name for name in RECIPES} | {"version-1.checkpoint"}


def test_main_rewrites_every_fixture_byte_for_byte(tmp_path, monkeypatch, capsys):
    from tests.data import regenerate

    monkeypatch.setattr(regenerate, "DATA", tmp_path)
    regenerate.main()
    assert len(capsys.readouterr().out.splitlines()) == len(RECIPES)
    for name in RECIPES:
        assert (tmp_path / f"{name}.checkpoint").read_bytes() == (DATA / f"{name}.checkpoint").read_bytes()
