"""The mode matrix: drive every scenario through every ingestion mode.

For each (scenario, mode) cell the runner performs the *strongest check the
mode's contract supports* — its equivalence tier — against the scenario's
ground-truth universe or against a reference run:

``bit-identical``
    The mode promises the same reservoir, bit for bit, as a reference
    serial run under equal seeds and chunking: mid-stream checkpoint-resume
    (exact RNG state round trip).  The cell asserts list equality of the
    final samples.

``exact-set+chi-square``
    The mode promises the right *distribution*, not the same bits: the
    per-tuple baseline, batched chunking and serial sharding
    (hypergeometric merge).  Two assertions: an over-sized
    reservoir (``k > |universe|``) must reproduce the ground-truth result
    set exactly, and across independently seeded trials the per-result
    inclusion counts must pass a chi-square uniformity test
    (``p >`` :data:`P_THRESHOLD`).

``epoch-exact-set+bit-identical``
    The serving layer's contract: reading the scenario *through* a
    :class:`~repro.serve.server.SampleServer` mid-stream, at two interior
    epochs and the final one, must yield (a) the bit-for-bit reservoir of a
    co-driven standalone run stopped at the same chunk boundary and (b) —
    with an over-sized reservoir — exactly the ground-truth result set of
    the *prefix* consumed by that epoch.  The earliest probe's snapshot is
    re-read after the stream finishes to prove snapshot isolation: later
    chunks must not leak into an older epoch cut.

The ``turnstile`` column re-runs every acyclic join scenario over a
retraction-bearing twin of its stream (deletions of live rows plus
pre-insert tombstones, via :func:`~tests.gauntlet.scenarios
.turnstile_variant`) through the deletion-capable sampler, asserting the
``exact-set+chi-square`` tier against the *surviving* (post-deletion)
result universe.  The dedicated turnstile scenario additionally flows
through the ordinary columns — per-tuple, batched, sharded (retractions
hash-routed to the owning shard), checkpoint-resume (including a windowed
sub-check), serving — because deletion-capable samplers implement the same
backend seam.

Cells a mode cannot structurally host — no join query to hash-partition,
retractions against a cyclic plan — are reported as ``skip`` with the
reason, never silently dropped.

Statistical power scales with ``GauntletConfig.trials``; below
:data:`MIN_CHI_TRIALS` trials the chi-square half of a statistical cell is
omitted (the chi-square approximation needs a floor) and the cell degrades
to its exact-set half — how the fast unit tests exercise the machinery
without flaky low-power statistics.
"""

from __future__ import annotations

import os
import random
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.turnstile import WindowedSampler
from repro.ingest.batch import BatchIngestor
from repro.ingest.shard import ShardedIngestor
from repro.relational.stream import StreamDelete, chunk_stream
from repro.serve import SampleServer

from benchmarks.harness import timed
from tests.gauntlet.scenarios import Scenario, build_scenarios, turnstile_variant
from tests.oracles import (
    ground_truth,
    result_key,
    surviving_ground_truth,
    uniformity_p_value,
)

#: Column order of the matrix.
MODES = (
    "pertuple",
    "batched",
    "sharded",
    "checkpoint",
    "served",
    "turnstile",
)

#: Below this many trials the chi-square approximation is too weak to gate on.
MIN_CHI_TRIALS = 20

#: Environment knob scaling scenario streams and trial counts together.
SCALE_ENV = "REPRO_GAUNTLET_SCALE"

K = 20                  # reservoir size for bit-identity cells
CHUNK_SIZE = 32         # chunking shared by every chunked mode
NUM_SHARDS = 3
P_THRESHOLD = 0.002     # reject uniformity at or below this p-value
SEED = 2024


@dataclass
class GauntletConfig:
    """Tunables of one gauntlet run (defaults are the full-strength profile)."""

    trials: int = 48            # chi-square trials for statistical cells
    scale: float = 1.0          # informational: the scenario scale used

    @classmethod
    def for_scale(cls, scale: float) -> "GauntletConfig":
        """The profile for a given scale: trials shrink with the streams,
        but never below the chi-square validity floor."""
        return cls(trials=max(MIN_CHI_TRIALS, int(48 * scale)), scale=scale)

    def chi_sample_size(self, universe_size: int) -> int:
        """Reservoir size for chi-square trials: large enough that expected
        per-result inclusion counts stay in testable territory even for
        big universes, small enough that a trial stays cheap."""
        return min(universe_size, max(K, -(-universe_size // 8)))

    def as_dict(self) -> Dict[str, object]:
        return {
            "k": K,
            "chunk_size": CHUNK_SIZE,
            "num_shards": NUM_SHARDS,
            "trials": self.trials,
            "p_threshold": P_THRESHOLD,
            "seed": SEED,
            "scale": self.scale,
        }


@dataclass
class CellResult:
    """Outcome of one (scenario, mode) cell."""

    scenario: str
    mode: str
    tier: str
    status: str                         # "pass" | "fail" | "skip"
    reason: Optional[str] = None        # skip reason or failure message
    p_value: Optional[float] = None
    serial_seconds: Optional[float] = None
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "tier": self.tier,
            "status": self.status,
            "reason": self.reason,
            "p_value": self.p_value,
            "serial_seconds": self.serial_seconds,
            "detail": self.detail,
        }


class CellFailure(AssertionError):
    """A cell's equivalence assertion failed (carries the cell context)."""


@dataclass
class GauntletReport:
    """Structured outcome of a full matrix run."""

    scenarios: List[Dict[str, object]]
    modes: List[str]
    config: Dict[str, object]
    cells: List[CellResult]

    def cell(self, scenario: str, mode: str) -> CellResult:
        for cell in self.cells:
            if cell.scenario == scenario and cell.mode == mode:
                return cell
        raise KeyError(f"no cell ({scenario!r}, {mode!r})")

    def counts(self) -> Dict[str, int]:
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for cell in self.cells:
            counts[cell.status] += 1
        return counts

    @property
    def passed(self) -> bool:
        """True when no cell failed (skips are allowed, failures are not)."""
        return self.counts()["fail"] == 0

    def failures(self) -> List[CellResult]:
        return [cell for cell in self.cells if cell.status == "fail"]

    def as_dict(self) -> Dict[str, object]:
        counts = self.counts()
        return {
            "scenarios": self.scenarios,
            "modes": self.modes,
            "config": self.config,
            "matrix": {
                scenario["name"]: {
                    cell.mode: cell.as_dict()
                    for cell in self.cells
                    if cell.scenario == scenario["name"]
                }
                for scenario in self.scenarios
            },
            "cells_passed": counts["pass"],
            "cells_failed": counts["fail"],
            "cells_skipped": counts["skip"],
        }

    def render(self) -> str:
        """A plain-text scenario×mode table (✓ pass / ✗ fail / – skip)."""
        symbol = {"pass": "✓", "fail": "✗", "skip": "–"}
        name_width = max(len(s["name"]) for s in self.scenarios)
        header = " ".join(
            [" " * name_width] + [mode.rjust(len(mode)) for mode in self.modes]
        )
        lines = [header]
        for scenario in self.scenarios:
            marks = [
                symbol[self.cell(scenario["name"], mode).status].rjust(len(mode))
                for mode in self.modes
            ]
            lines.append(" ".join([scenario["name"].ljust(name_width)] + marks))
        counts = self.counts()
        lines.append(
            f"{counts['pass']} passed, {counts['fail']} failed, "
            f"{counts['skip']} skipped"
        )
        return "\n".join(lines)


class ModeMatrix:
    """Run scenarios × modes, one differential-equivalence check per cell."""

    def __init__(
        self,
        scenarios: Sequence[Scenario],
        config: Optional[GauntletConfig] = None,
        modes: Sequence[str] = MODES,
    ) -> None:
        unknown = [mode for mode in modes if mode not in MODES]
        if unknown:
            raise KeyError(f"unknown modes: {unknown}; known: {list(MODES)}")
        self.scenarios = list(scenarios)
        self.config = config or GauntletConfig()
        self.modes = list(modes)

    # ------------------------------------------------------------------ #
    # Reference runs (shared by several cells)
    # ------------------------------------------------------------------ #
    def _run_pertuple(self, scenario: Scenario, k: int, seed: int) -> List[dict]:
        sampler = scenario.make_sampler(k, random.Random(seed))
        for item in scenario.stream:
            if isinstance(item, StreamDelete):
                sampler.delete(item.relation, item.row)
            else:
                sampler.insert(item.relation, item.row)
        return list(sampler.sample)

    def _run_batched(self, scenario: Scenario, k: int, seed: int) -> List[dict]:
        sampler = scenario.make_sampler(k, random.Random(seed))
        BatchIngestor(sampler, chunk_size=CHUNK_SIZE).ingest(
            scenario.stream
        )
        return list(sampler.sample)

    def _make_sharded(self, scenario: Scenario, k: int, seed: int) -> ShardedIngestor:
        kwargs = dict(
            num_shards=NUM_SHARDS,
            chunk_size=CHUNK_SIZE,
            rng=random.Random(seed),
        )
        if scenario.kind in ("cyclic", "turnstile"):
            # The default shard factory builds acyclic ReservoirJoins; cyclic
            # and turnstile scenarios shard through the scenario's own
            # (GHD-based resp. deletion-capable) sampler factory.
            kwargs["factory"] = lambda shard, rng: scenario.make_sampler(k, rng)
        return ShardedIngestor(scenario.query, k, **kwargs)

    def _run_sharded(self, scenario: Scenario, k: int, seed: int) -> List[dict]:
        ingestor = self._make_sharded(scenario, k, seed)
        ingestor.ingest(scenario.stream)
        return ingestor.merged_sample(k, rng=random.Random(seed + 101))

    # ------------------------------------------------------------------ #
    # Cell checks
    # ------------------------------------------------------------------ #
    def _check_exact_set(
        self, scenario: Scenario, run: Callable[[Scenario, int, int], List[dict]]
    ) -> int:
        """An over-sized reservoir must hold exactly the ground truth."""
        oversized = scenario.universe_size + 8
        sample = run(scenario, oversized, SEED)
        sampled = {result_key(result) for result in sample}
        truth = {result_key(result) for result in scenario.universe}
        if sampled != truth:
            raise CellFailure(
                f"exact-set mismatch: {len(sampled - truth)} spurious, "
                f"{len(truth - sampled)} missing of {len(truth)} results"
            )
        return oversized

    def _statistical_cell(
        self,
        scenario: Scenario,
        mode: str,
        run: Callable[[Scenario, int, int], List[dict]],
        trials: Optional[int] = None,
    ) -> CellResult:
        cfg = self.config
        trials = cfg.trials if trials is None else trials
        chi_square = trials >= MIN_CHI_TRIALS
        tier = "exact-set+chi-square" if chi_square else "exact-set"
        seconds = timed(lambda: self._check_exact_set(scenario, run))
        detail: Dict[str, object] = {"exact_set": True}
        p_value = None
        if chi_square:
            k_chi = cfg.chi_sample_size(scenario.universe_size)
            p_value = uniformity_p_value(
                lambda seed: run(scenario, k_chi, SEED + 1 + seed),
                scenario.universe,
                trials,
                k_chi,
            )
            detail.update({"trials": trials, "chi_k": k_chi})
            if p_value <= P_THRESHOLD:
                raise CellFailure(
                    f"uniformity rejected: p={p_value:.5f} <= {P_THRESHOLD}"
                )
        return CellResult(
            scenario.name, mode, tier, "pass",
            p_value=p_value, serial_seconds=round(seconds, 4), detail=detail,
        )

    def _cell_pertuple(self, scenario: Scenario) -> CellResult:
        return self._statistical_cell(scenario, "pertuple", self._run_pertuple)

    def _cell_batched(self, scenario: Scenario) -> CellResult:
        return self._statistical_cell(scenario, "batched", self._run_batched)

    def _cell_sharded(self, scenario: Scenario) -> CellResult:
        cell = self._statistical_cell(scenario, "sharded", self._run_sharded)
        ingestor = self._make_sharded(scenario, K, SEED)
        cell.serial_seconds = round(timed(lambda: ingestor.ingest(scenario.stream)), 4)
        cell.detail["load_imbalance"] = ingestor.statistics().get("load_imbalance")
        return cell

    def _prefix_universe(self, scenario: Scenario, consumed: int) -> List[dict]:
        """Ground truth of the first ``consumed`` stream tuples — what a
        snapshot at that boundary's epoch must be uniform over."""
        prefix = scenario.stream[:consumed]
        if scenario.kind == "turnstile":
            # A prefix of a turnstile stream may truncate delete/insert
            # annihilation pairs; the surviving-rows replay resolves exactly
            # what a sampler fed that prefix has stored.
            return surviving_ground_truth(scenario.query, prefix)
        if scenario.query is not None:
            return ground_truth(scenario.query, prefix)
        # Predicate scenario: replay the prefix through the scenario's own
        # predicate (probed off a throwaway sampler, so scenario builders
        # stay free to wrap or counter-instrument it).
        probe = scenario.make_sampler(1, random.Random(0))
        predicate = probe.predicate
        return [
            {probe.ATTRIBUTE: item.row[0]}
            for item in prefix
            if predicate(item.row[0])
        ]

    def _cell_served(self, scenario: Scenario) -> CellResult:
        """Mid-stream reads through a SampleServer: every probed epoch is
        bit-identical to a co-driven standalone run stopped at the same
        boundary, exactly covers the prefix universe, and stays frozen
        while later chunks land (snapshot isolation)."""
        oversized = scenario.universe_size + 8
        server = SampleServer(
            BatchIngestor(
                scenario.make_sampler(oversized, random.Random(SEED)),
                chunk_size=CHUNK_SIZE,
            )
        )
        reference = BatchIngestor(
            scenario.make_sampler(oversized, random.Random(SEED)),
            chunk_size=CHUNK_SIZE,
        )
        pieces = list(chunk_stream(scenario.stream, CHUNK_SIZE))
        total = len(pieces)
        # Two interior boundaries plus the final one (deduplicated on the
        # smoke-scale streams where they collide).
        probes = sorted({max(1, total // 3), max(1, (2 * total) // 3), total})
        epochs_checked: List[int] = []
        held: List[object] = []  # [snapshot, recorded sample] of first probe

        def run() -> None:
            consumed = 0
            for boundary, piece in enumerate(pieces, start=1):
                server.ingest_batch(piece)
                reference.ingest_batch(piece)
                consumed += len(piece)
                if boundary not in probes:
                    continue
                snap = server.snapshot()
                if snap.epoch != boundary:
                    raise CellFailure(
                        f"snapshot epoch {snap.epoch} != boundary {boundary}"
                    )
                sample = snap.sample()
                if sample != list(reference.sampler.sample):
                    raise CellFailure(
                        f"served sample at epoch {boundary} is not "
                        "bit-identical to the standalone run"
                    )
                sampled = {result_key(result) for result in sample}
                truth = {
                    result_key(result)
                    for result in self._prefix_universe(scenario, consumed)
                }
                if sampled != truth:
                    raise CellFailure(
                        f"epoch {boundary} exact-set mismatch: "
                        f"{len(sampled - truth)} spurious, "
                        f"{len(truth - sampled)} missing of {len(truth)} results"
                    )
                epochs_checked.append(boundary)
                if not held:
                    held.extend([snap, list(sample)])

        seconds = timed(run)
        if held and held[0].sample() != held[1]:
            raise CellFailure(
                f"epoch-{held[0].epoch} snapshot mutated after later chunks "
                "(isolation broken)"
            )
        statistics = server.statistics()
        return CellResult(
            scenario.name, "served", "epoch-exact-set+bit-identical", "pass",
            serial_seconds=round(seconds, 4),
            detail={
                "epochs_checked": epochs_checked,
                "final_epoch": server.epoch,
                "isolation_reread": bool(held),
                "snapshots_taken": statistics.get("snapshots_taken"),
            },
        )

    def _cell_turnstile(self, scenario: Scenario) -> CellResult:
        """Exact-set and chi-square uniformity over the *surviving* universe.

        Every acyclic join scenario gets a retraction-bearing twin (the
        dedicated turnstile scenario rides its own stream): the stream is
        threaded through :func:`~repro.relational.stream.turnstile_stream`
        and ingested chunked — exercising the mixed insert/retraction
        segmentation of ``TurnstileReservoirJoin.ingest_batch`` — then the
        statistical tier asserts against the post-deletion result set.
        """
        derived = turnstile_variant(scenario, seed=SEED + 7)
        cell = self._statistical_cell(derived, "turnstile", self._run_batched)
        cell.scenario = scenario.name
        deletes = sum(
            1 for item in derived.stream if isinstance(item, StreamDelete)
        )
        cell.detail.update(
            {
                "stream_tuples": len(derived.stream),
                "retractions": deletes,
                "surviving_universe": derived.universe_size,
            }
        )
        return cell

    def _checkpoint_boundary(self, scenario: Scenario) -> int:
        """A mid-stream cut on a chunk boundary (the documented save point:
        chunking-sensitive samplers resume bit-identically only there)."""
        half_chunks = max(1, len(scenario.stream) // (2 * CHUNK_SIZE))
        return half_chunks * CHUNK_SIZE

    def _cell_checkpoint(self, scenario: Scenario, tmp_dir: str) -> CellResult:
        """Save mid-stream, restore, finish: bit-identical to uninterrupted.

        Sub-checks cover every durable ingestor the scenario supports, so
        across the matrix the checkpoint column exercises all three: batch,
        sharded and windowed.
        """
        cut = self._checkpoint_boundary(scenario)
        head, tail = scenario.stream[:cut], scenario.stream[cut:]
        covered: List[str] = []

        def roundtrip(ingestor_cls, build, path, finished):
            ingestor = build()
            ingestor.ingest(head)
            ingestor.save(path)
            resumed = ingestor_cls.restore(path)
            resumed.ingest(tail)
            finished(resumed)

        def check(name: str, run: Callable[[], None]) -> None:
            run()
            covered.append(name)

        def batch_check() -> None:
            uninterrupted = self._run_batched(scenario, K, SEED)
            path = os.path.join(tmp_dir, f"{scenario.name}-batch.ckpt")

            def finished(resumed: BatchIngestor) -> None:
                if list(resumed.sampler.sample) != uninterrupted:
                    raise CellFailure("batch checkpoint-resume diverged")

            roundtrip(
                BatchIngestor,
                lambda: BatchIngestor(
                    scenario.make_sampler(K, random.Random(SEED)),
                    chunk_size=CHUNK_SIZE,
                ),
                path,
                finished,
            )

        def sharded_check() -> None:
            reference = self._make_sharded(scenario, K, SEED)
            reference.ingest(scenario.stream)
            path = os.path.join(tmp_dir, f"{scenario.name}-sharded.ckpt")

            def finished(resumed: ShardedIngestor) -> None:
                if [list(s.sample) for s in resumed.samplers] != [
                    list(s.sample) for s in reference.samplers
                ]:
                    raise CellFailure("sharded checkpoint-resume diverged")

            roundtrip(
                ShardedIngestor,
                lambda: self._make_sharded(scenario, K, SEED),
                path,
                finished,
            )

        def windowed_check() -> None:
            # Window expiry state (stamp log, local clock) must round-trip:
            # a count window short enough that expiries continue *after* the
            # checkpoint boundary proves the restored sampler expires the
            # same rows the uninterrupted run does.
            window = max(CHUNK_SIZE, len(scenario.stream) // 3)

            def build() -> BatchIngestor:
                return BatchIngestor(
                    WindowedSampler(
                        scenario.query, K, window=window,
                        rng=random.Random(SEED), mode="count",
                    ),
                    chunk_size=CHUNK_SIZE,
                )

            uninterrupted = build()
            uninterrupted.ingest(scenario.stream)
            path = os.path.join(tmp_dir, f"{scenario.name}-windowed.ckpt")

            def finished(resumed: BatchIngestor) -> None:
                if list(resumed.sampler.sample) != list(
                    uninterrupted.sampler.sample
                ):
                    raise CellFailure("windowed checkpoint-resume diverged")
                if resumed.sampler.statistics() != uninterrupted.sampler.statistics():
                    raise CellFailure(
                        "windowed checkpoint-resume statistics diverged"
                    )

            roundtrip(BatchIngestor, build, path, finished)

        check("batch", batch_check)
        if scenario.query is not None and scenario.kind in ("acyclic", "turnstile"):
            check("sharded", sharded_check)
        if scenario.kind == "turnstile":
            check("windowed", windowed_check)
        return CellResult(
            scenario.name, "checkpoint", "bit-identical", "pass",
            detail={"covered": covered, "cut_at_tuple": cut},
        )

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _skip_reason(self, scenario: Scenario, mode: str) -> Optional[str]:
        if mode == "sharded" and scenario.query is None:
            return "no join query to hash-partition (predicate stream)"
        if mode == "turnstile":
            if scenario.query is None:
                return "no join index to retract from (predicate stream)"
            if scenario.kind == "cyclic":
                return (
                    "turnstile retraction requires the acyclic dynamic "
                    "index (c̃nt decrement propagation)"
                )
        if mode == "served" and scenario.query is None:
            # Epoch exact-set needs the *prefix* universe, which for a
            # predicate stream is derivable only from the predicate itself.
            probe = scenario.make_sampler(1, random.Random(0))
            if getattr(probe, "predicate", None) is None:
                return (
                    "sampler exposes no predicate to derive the prefix "
                    "universe for epoch exact-set checks"
                )
        return None

    def run_cell(self, scenario: Scenario, mode: str, tmp_dir: str) -> CellResult:
        if mode not in MODES:
            # A typo'd mode must surface as a clear error, not be swallowed
            # into a traceback-formatted cell failure by the dispatch below.
            raise KeyError(
                f"unknown mode {mode!r}; known modes: {list(MODES)}"
            )
        reason = self._skip_reason(scenario, mode)
        if reason is not None:
            return CellResult(scenario.name, mode, "n/a", "skip", reason=reason)
        dispatch = {
            "pertuple": self._cell_pertuple,
            "batched": self._cell_batched,
            "sharded": self._cell_sharded,
            "served": self._cell_served,
            "turnstile": self._cell_turnstile,
        }
        try:
            if mode == "checkpoint":
                return self._cell_checkpoint(scenario, tmp_dir)
            return dispatch[mode](scenario)
        except CellFailure as failure:
            return CellResult(
                scenario.name, mode, "n/a", "fail", reason=str(failure)
            )
        except Exception:
            return CellResult(
                scenario.name, mode, "n/a", "fail",
                reason=traceback.format_exc(limit=3),
            )

    def run(self, tmp_dir: Optional[str] = None) -> GauntletReport:
        """Run every cell; never raises — failures land in the report."""
        import tempfile

        cells: List[CellResult] = []
        with tempfile.TemporaryDirectory() as fallback:
            directory = tmp_dir or fallback
            for scenario in self.scenarios:
                for mode in self.modes:
                    cells.append(self.run_cell(scenario, mode, directory))
        return GauntletReport(
            scenarios=[scenario.summary() for scenario in self.scenarios],
            modes=self.modes,
            config=self.config.as_dict(),
            cells=cells,
        )


def run_gauntlet(
    scale: Optional[float] = None,
    names: Optional[Sequence[str]] = None,
    modes: Sequence[str] = MODES,
    config: Optional[GauntletConfig] = None,
) -> GauntletReport:
    """Build the scenarios and run the full matrix.

    ``scale`` defaults to the ``REPRO_GAUNTLET_SCALE`` environment variable
    (1.0 when unset) — the single knob the CI smoke profile turns.
    """
    if scale is None:
        scale = float(os.environ.get(SCALE_ENV, "1"))
    scenarios = build_scenarios(scale, names)
    matrix = ModeMatrix(scenarios, config or GauntletConfig.for_scale(scale), modes)
    return matrix.run()

