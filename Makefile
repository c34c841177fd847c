# Developer entry points. Everything runs from the repo root with src/ on
# the path; no build step (pure Python).

PYTHONPATH := src
export PYTHONPATH

.PHONY: test test-smoke unit docs-check slow slow-smoke gauntlet gauntlet-smoke benchmark bench-gates bench bench-smoke profile

# The default invocation: the fast deterministic suite + executable docs.
test: unit docs-check

# The CI smoke profile in one shot: tier-1 suite (which includes the gating
# serving-layer slice, tests/test_serving.py: snapshot isolation is a
# correctness seam, not a perf knob; the thread-safe SampleServer is the one
# serving mode, read from any number of threads), executable docs, the
# repository benchmark's correctness gates, the pytest-benchmark entry
# points of the figure and ablation scripts (so they cannot rot; ~10 s), and
# the statistical suites at the scaled-down REPRO_STAT_TRIALS=60 trial
# counts (the whole thing finishes in well under three minutes).
test-smoke: unit docs-check bench-gates
	python -m pytest benchmarks/bench_*.py -q
	REPRO_STAT_TRIALS=60 python -m pytest -m slow -q

unit:
	python -m pytest -x -q

# Execute every runnable fenced command in README.md / docs/ARCHITECTURE.md
# (slow fences are statically checked instead — see tools/docs_check.py).
docs-check:
	python tools/docs_check.py

# Statistical correctness suites (chi-square uniformity, differential,
# property harness) at full strength / at the CI smoke profile.
slow:
	python -m pytest -m slow -q

slow-smoke:
	REPRO_STAT_TRIALS=60 python -m pytest -m slow -q

# Workload gauntlet: every workload scenario through every ingestion mode,
# each cell asserting its equivalence tier (see docs/ARCHITECTURE.md,
# "Workload gauntlet").  Full strength / the scaled CI smoke profile
# (REPRO_GAUNTLET_SCALE shrinks streams and chi-square trial counts
# together; the smoke profile finishes in well under two minutes).
gauntlet:
	python -m pytest -m gauntlet -q

gauntlet-smoke:
	REPRO_GAUNTLET_SCALE=0.25 python -m pytest -m gauntlet -q

# The repository benchmark (bench/README.md): three workloads through the
# public API, end-to-end metrics printed and written to BENCH_suite.json.
benchmark:
	python3 bench/run.py

# The benchmark's correctness gates, not its numbers: one small traced pass
# of every workload.  Exits 1 if a workload's correctness gate fails or a
# tracer probe no longer resolves a name in src/; no timing is bounded.
bench-gates:
	python3 bench/run.py --scale 0.05 --trace 1 --out "$$(mktemp -d)/suite.json"

# Ingestion-seam acceptance benchmarks (each emits BENCH_*.json in CWD).
bench:
	python benchmarks/bench_batch_ingest.py
	python benchmarks/bench_async.py
	python benchmarks/bench_gauntlet.py
	python benchmarks/bench_serving.py
	python benchmarks/bench_turnstile.py

# Profile-first workflow for the ingestion hot path: GC-paused wall times
# plus cProfile hotspot tables for the batched ingestion mode (on the
# benchmark's insert-chain3 stream), for a checkpoint save of the
# batched final state (ms and file bytes), for the benchmark's serve-chain3
# loop (read µs p50, save ms), for per-row index inserts and deletes (µs/row,
# no sampler) and for the turnstile path (in the benchmark's turnstile-2way
# shape).
profile:
	python tools/profile_hotpath.py

# Tiny-N smoke of the five seam benchmarks (REPRO_BENCH_SCALE=0.02, one
# repeat): asserts each still *executes and emits valid JSON* — imports,
# streams, internal bit-identity/exact-count assertions, report schema — and
# that the serving bench's reader threads read inside the writer's window.
# No speedup thresholds: per the bench-box convention, ratios are far too
# noisy to gate CI on.  The emitted BENCH_*.json files are CI artifacts.
bench-smoke:
	python tools/bench_smoke.py
