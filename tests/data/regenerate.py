"""Write the checkpoint fixtures of ``tests/data`` from their recipes.

Each fixture is a ``BatchIngestor`` checkpoint saved at a chunk boundary of
a recorded stream.  The tests that restore it ingest the rest of the stream
and compare against digests an unbroken run reached, so a fixture pins
continuation, not a layout.  A change to the checkpoint format bumps
``FORMAT_VERSION`` and reruns this script, rather than adding a converter
for the old files.  From the repository root::

    PYTHONPATH=src python -m tests.data.regenerate

``tests/test_fixtures.py`` checks that each committed fixture holds what a
fresh run of its recipe snapshots.  ``version-1.checkpoint`` has no recipe:
it is a file of the retired version 1, kept to show that it is refused.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro import BatchIngestor, JoinQuery, ReservoirJoin
from repro.core.turnstile import TurnstileReservoirJoin, WindowedSampler

from tests.test_checkpoint import chain3, chain3_stream
from tests.test_tree_index import _WIDE, grouped_turnstile_stream
from tests.test_turnstile import TWO, windowed_fixture_stream

DATA = Path(__file__).resolve().parent

#: Every recipe cuts its stream into chunks of this size.
CHUNK_SIZE = 16


def _batch() -> Tuple[object, List]:
    """The first 32 tuples of ``chain3_stream(60, seed=20)`` into a
    ``ReservoirJoin`` over chain-3 with ``k = 6``."""
    return ReservoirJoin(chain3(), 6, rng=random.Random(21)), chain3_stream(60, seed=20)[:32]


def _windowed() -> Tuple[object, List]:
    """The first 192 items of ``windowed_fixture_stream()`` into a
    timestamp-window sampler over the two-table join.

    The query is a fresh copy of ``TWO``: a schema caches the attribute
    positions it has looked up, so an earlier run over ``TWO`` itself would
    change which tuples the pickled index shares, and with them its bytes.
    """
    query = JoinQuery.from_spec(TWO.name, {schema.name: schema.attrs for schema in TWO.relations})
    sampler = WindowedSampler(query, k=12, window=40, mode="timestamp", rng=random.Random(93))
    return sampler, windowed_fixture_stream()[:192]


def _grouped_turnstile() -> Tuple[object, List]:
    """The first 256 items of ``grouped_turnstile_stream()`` into a grouped
    turnstile sampler over the ``wide`` join."""
    query = JoinQuery.from_spec("wide", _WIDE)
    sampler = TurnstileReservoirJoin(query, 15, grouping=True, rng=random.Random(43))
    return sampler, grouped_turnstile_stream()[:256]


#: Fixture name -> its recipe: a fresh sampler and the stream prefix it takes.
RECIPES: Dict[str, Callable[[], Tuple[object, List]]] = {
    "batch": _batch,
    "windowed": _windowed,
    "grouped-turnstile": _grouped_turnstile,
}


def fixture_path(name: str) -> Path:
    return DATA / f"{name}.checkpoint"


def build(name: str) -> BatchIngestor:
    """The ingestor of fixture ``name``, at the chunk boundary it is saved at."""
    sampler, prefix = RECIPES[name]()
    return BatchIngestor(sampler, chunk_size=CHUNK_SIZE).ingest(prefix)


def main() -> None:
    for name in RECIPES:
        build(name).save(fixture_path(name))
        print(f"wrote {fixture_path(name)}")


if __name__ == "__main__":
    main()
