"""The workload gauntlet: end-to-end scenario conformance across every mode.

:mod:`tests.gauntlet.scenarios` adapts each workload family the repository
owns — TPC-DS, LDBC-SNB, graph queries (acyclic and cyclic) and the
predicate-filtered string stream — into the
:class:`~repro.core.backend.SamplerBackend` seam, and
:mod:`tests.gauntlet.matrix` drives every scenario through every ingestion
mode, asserting each cell's declared equivalence tier into a structured
pass/fail/skip report::

    from tests.gauntlet.matrix import run_gauntlet
    report = run_gauntlet(scale=0.25)       # or REPRO_GAUNTLET_SCALE
    assert report.passed, report.render()

See ``docs/ARCHITECTURE.md`` ("Workload gauntlet") for the matrix and the
tier definitions, and ``benchmarks/bench_gauntlet.py`` for the timed run
that emits ``BENCH_gauntlet.json``.
"""
