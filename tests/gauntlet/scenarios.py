"""The scenario registry: every realistic workload, adapted to the seam.

A :class:`Scenario` packages one workload — a query (or predicate), a
reproducibly generated stream, a sampler factory conforming to the
:class:`~repro.core.backend.SamplerBackend` protocol, and the ground-truth
result universe — in exactly the shape the :mod:`~tests.gauntlet.matrix`
runner needs to drive it through every ingestion mode and check the mode's
equivalence tier against the truth.

Seven scenarios cover the repo's workload families:

========================  =========  ==========================================
scenario                  kind       source
========================  =========  ==========================================
``tpcds-qx``              acyclic    :mod:`repro.workloads.tpcds` query QX
``tpcds-qy``              acyclic    :mod:`repro.workloads.tpcds` query QY
``ldbc-q10``              acyclic    :mod:`repro.workloads.ldbc` BI query 10
``graph-star3``           acyclic    :mod:`repro.workloads.graph` star query
``graph-triangle``        cyclic     :mod:`repro.workloads.graph` triangle
``graph-turnstile``       turnstile  :mod:`repro.workloads.graph` line-2 +
                                     :func:`~repro.relational.stream
                                     .turnstile_stream`
``strings-predicate``     predicate  :mod:`repro.workloads.strings` streams
========================  =========  ==========================================

``kind`` determines which modes structurally apply (see
:data:`~tests.gauntlet.matrix.MODES`): cyclic queries shard only through a
custom per-shard factory, the predicate scenario has no join query to
hash-partition at all, and turnstile scenarios carry
:class:`~repro.relational.stream.StreamDelete` retractions that only the
deletion-capable samplers of :mod:`repro.core.turnstile` can host — their
ground-truth universe is the join over the *surviving* rows.

Every builder takes a ``scale`` knob (default 1.0) that shrinks the stream
proportionally — ``REPRO_GAUNTLET_SCALE`` flows through
:func:`build_scenarios` so the CI smoke profile runs the same scenarios,
smaller.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.predicate_backend import PredicateStreamSampler
from repro.core.reservoir_join import ReservoirJoin
from repro.core.turnstile import TurnstileReservoirJoin
from repro.cyclic.cyclic_join import CyclicReservoirJoin
from repro.relational.query import JoinQuery
from repro.relational.stream import StreamTuple, turnstile_stream
from repro.workloads import graph, ldbc, strings, tpcds

from tests.oracles import ground_truth, surviving_ground_truth


#: Kinds a scenario can declare; the matrix keys structural skips off these.
#: ``turnstile`` marks a retraction-bearing stream: the sampler must be
#: deletion-capable and the universe is the *surviving* join result set.
KINDS = ("acyclic", "cyclic", "predicate", "turnstile")


@dataclass
class Scenario:
    """One workload, adapted into the ingestion seam.

    Attributes
    ----------
    name:
        Registry key, also the row label of the gauntlet matrix.
    kind:
        ``"acyclic"`` | ``"cyclic"`` | ``"predicate"`` — which sampler family
        hosts the workload, and hence which modes structurally apply.
    query:
        The join query, or ``None`` for the predicate scenario.
    stream:
        The full tuple stream, generated once per scenario build so every
        mode and every trial replays the *same* input.
    make_sampler:
        ``(k, rng) -> SamplerBackend`` — a fresh, independently seeded
        sampler for the workload.  Statistical trials call it once per seed.
    universe:
        Ground truth: the exhaustive join results (or predicate-passing
        items) after the whole stream — what exact-set and chi-square cells
        compare against.
    invariants:
        The equivalence tiers the workload expects its cells to assert —
        documentation surfaced into reports, not control flow.
    description:
        One line for reports and docs.
    """

    name: str
    kind: str
    query: Optional[JoinQuery]
    stream: List[StreamTuple]
    make_sampler: Callable[[int, random.Random], object]
    universe: List[Dict[str, object]] = field(repr=False)
    invariants: Tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not self.universe:
            raise ValueError(
                f"scenario {self.name!r} has an empty result universe — "
                "uniformity over nothing is vacuous; grow the stream"
            )

    @property
    def universe_size(self) -> int:
        return len(self.universe)

    def summary(self) -> Dict[str, object]:
        """Reporting row: everything but the bulky stream/universe bodies."""
        return {
            "name": self.name,
            "kind": self.kind,
            "query": self.query.name if self.query is not None else None,
            "stream_tuples": len(self.stream),
            "universe_size": self.universe_size,
            "invariants": list(self.invariants),
            "description": self.description,
        }


JOIN_INVARIANTS = ("uniform", "exact-set", "bit-identity", "checkpoint-resume")


def _join_scenario(
    name: str,
    kind: str,
    query: JoinQuery,
    stream: List[StreamTuple],
    description: str,
) -> Scenario:
    if kind == "cyclic":
        def make_sampler(k: int, rng: random.Random):
            return CyclicReservoirJoin(query, k, rng=rng)
    else:
        def make_sampler(k: int, rng: random.Random):
            return ReservoirJoin(query, k, rng=rng)

    return Scenario(
        name=name,
        kind=kind,
        query=query,
        stream=stream,
        make_sampler=make_sampler,
        universe=ground_truth(query, stream),
        invariants=JOIN_INVARIANTS,
        description=description,
    )


# ---------------------------------------------------------------------- #
# Builders (one per scenario; all reproducible from an explicit seed)
# ---------------------------------------------------------------------- #
def tpcds_qx(scale: float = 1.0, seed: int = 11) -> Scenario:
    rng = random.Random(seed)
    data = tpcds.generate(0.12 * scale, rng)
    query, stream = tpcds.qx_workload(data, rng)
    return _join_scenario(
        "tpcds-qx", "acyclic", query, stream,
        "TPC-DS QX: store sales joined with customer and demographics",
    )


def tpcds_qy(scale: float = 1.0, seed: int = 12) -> Scenario:
    rng = random.Random(seed)
    data = tpcds.generate(0.12 * scale, rng)
    query, stream = tpcds.qy_workload(data, rng)
    return _join_scenario(
        "tpcds-qy", "acyclic", query, stream,
        "TPC-DS QY: store and catalog sales correlated through shared items",
    )


def ldbc_q10(scale: float = 1.0, seed: int = 13) -> Scenario:
    rng = random.Random(seed)
    data = ldbc.generate(0.1 * scale, rng)
    query, stream = ldbc.q10_workload(data, rng)
    return _join_scenario(
        "ldbc-q10", "acyclic", query, stream,
        "LDBC-SNB BI query 10: person-knows-person with message activity",
    )


def graph_star3(scale: float = 1.0, seed: int = 14) -> Scenario:
    rng = random.Random(seed)
    query = graph.star_query(3)
    stream = graph.graph_workload(
        query, max(30, int(50 * scale)), rng, model="uniform"
    )
    return _join_scenario(
        "graph-star3", "acyclic", query, stream,
        "3-arm star join over a uniform random edge stream",
    )


def graph_triangle(scale: float = 1.0, seed: int = 15) -> Scenario:
    rng = random.Random(seed)
    query = graph.triangle_query()
    stream = graph.graph_workload(
        query, max(60, int(220 * scale)), rng, model="uniform"
    )
    return _join_scenario(
        "graph-triangle", "cyclic", query, stream,
        "Triangle counting join (cyclic; GHD-based sampler)",
    )


TURNSTILE_INVARIANTS = (
    "uniform-surviving", "exact-set", "bit-identity", "checkpoint-resume"
)

#: Retraction mix of derived turnstile streams (see ``turnstile_variant``).
TURNSTILE_DELETE_FRACTION = 0.3
TURNSTILE_TOMBSTONE_FRACTION = 0.1


def graph_turnstile(scale: float = 1.0, seed: int = 17) -> Scenario:
    rng = random.Random(seed)
    query = graph.line_query(2)
    inserts = graph.graph_workload(
        query, max(40, int(80 * scale)), rng, model="uniform"
    )
    stream = turnstile_stream(
        inserts,
        rng,
        delete_fraction=TURNSTILE_DELETE_FRACTION,
        tombstone_fraction=TURNSTILE_TOMBSTONE_FRACTION,
    )

    def make_sampler(k: int, sampler_rng: random.Random) -> TurnstileReservoirJoin:
        return TurnstileReservoirJoin(query, k, rng=sampler_rng)

    return Scenario(
        name="graph-turnstile",
        kind="turnstile",
        query=query,
        stream=stream,
        make_sampler=make_sampler,
        universe=surviving_ground_truth(query, stream),
        invariants=TURNSTILE_INVARIANTS,
        description="Line-2 path join over a turnstile edge stream "
        "(deletions and pre-insert tombstones)",
    )


def turnstile_variant(scenario: Scenario, seed: int = 1719) -> Scenario:
    """Derive a retraction-bearing twin of an acyclic join scenario.

    The scenario's insert stream is threaded through
    :func:`~repro.relational.stream.turnstile_stream` (deletions of live
    rows plus pre-insert tombstones) and the universe is recomputed over the
    survivors — so the matrix's turnstile column can assert exact-set and
    chi-square uniformity *against the post-deletion result set* for every
    acyclic workload, not just the dedicated turnstile scenario.  If the
    retraction mix empties the join, the delete fraction is halved until a
    non-empty surviving universe remains (deterministic in ``seed``).
    """
    if scenario.kind == "turnstile":
        return scenario
    if scenario.query is None or scenario.kind != "acyclic":
        raise ValueError(
            f"scenario {scenario.name!r} ({scenario.kind}) has no acyclic "
            "join to retract from"
        )
    fraction = TURNSTILE_DELETE_FRACTION
    while True:
        stream = turnstile_stream(
            scenario.stream,
            random.Random(seed),
            delete_fraction=fraction,
            tombstone_fraction=TURNSTILE_TOMBSTONE_FRACTION,
        )
        universe = surviving_ground_truth(scenario.query, stream)
        if universe:
            break
        fraction /= 2

    query = scenario.query

    def make_sampler(k: int, sampler_rng: random.Random) -> TurnstileReservoirJoin:
        return TurnstileReservoirJoin(query, k, rng=sampler_rng)

    return Scenario(
        name=f"{scenario.name}+turnstile",
        kind="turnstile",
        query=query,
        stream=stream,
        make_sampler=make_sampler,
        universe=universe,
        invariants=TURNSTILE_INVARIANTS,
        description=f"Retraction-bearing twin of {scenario.name}",
    )


class TaggedPredicate:
    """Evaluate an inner predicate on the string of a ``(position, string)``
    pair.

    The gauntlet streams strings tagged with their stream position: the
    reservoir guarantee is uniformity over *positions*, and perturbed
    streams contain duplicate strings (a zero-edit perturbation IS the
    query string), which would otherwise fold distinct positions into one
    chi-square bucket and wrongly reject.  Module-level and
    delegating, so it stays picklable for the checkpoint cells and keeps
    the inner evaluation counter observable.
    """

    def __init__(self, inner: strings.EditDistancePredicate) -> None:
        self.inner = inner

    def __call__(self, tagged: Tuple[int, str]) -> bool:
        return self.inner(tagged[1])

    @property
    def evaluations(self) -> int:
        return self.inner.evaluations


def strings_predicate(scale: float = 1.0, seed: int = 16) -> Scenario:
    rng = random.Random(seed)
    items, query_string, predicate = strings.string_stream(
        max(160, int(420 * scale)), 0.3, rng
    )
    tagged = list(enumerate(items))
    stream = [StreamTuple("S", (pair,)) for pair in tagged]
    universe = [{"item": pair} for pair in tagged if predicate(pair[1])]

    def make_sampler(k: int, sampler_rng: random.Random) -> PredicateStreamSampler:
        # A fresh predicate per sampler keeps the evaluation counters of
        # concurrent trials independent.
        return PredicateStreamSampler(
            k,
            TaggedPredicate(
                strings.EditDistancePredicate(query_string, predicate.threshold)
            ),
            rng=sampler_rng,
        )

    return Scenario(
        name="strings-predicate",
        kind="predicate",
        query=None,
        stream=stream,
        make_sampler=make_sampler,
        universe=universe,
        invariants=("uniform", "exact-set", "bit-identity", "checkpoint-resume"),
        description="Edit-distance-filtered string stream (Algorithm 1 reservoir)",
    )


#: The registry: name → builder.  Insertion order is report order.
SCENARIO_BUILDERS: Dict[str, Callable[..., Scenario]] = {
    "tpcds-qx": tpcds_qx,
    "tpcds-qy": tpcds_qy,
    "ldbc-q10": ldbc_q10,
    "graph-star3": graph_star3,
    "graph-triangle": graph_triangle,
    "graph-turnstile": graph_turnstile,
    "strings-predicate": strings_predicate,
}


def build_scenarios(
    scale: float = 1.0, names: Optional[Sequence[str]] = None
) -> List[Scenario]:
    """Materialise scenarios (all of them, or the given ``names``) at ``scale``."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    selected = list(SCENARIO_BUILDERS) if names is None else list(names)
    unknown = [name for name in selected if name not in SCENARIO_BUILDERS]
    if unknown:
        raise KeyError(f"unknown scenarios: {unknown}; known: {list(SCENARIO_BUILDERS)}")
    return [SCENARIO_BUILDERS[name](scale) for name in selected]

