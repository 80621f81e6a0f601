# SMORE reproduction — common workflows.

.PHONY: install test bench-tests bench bench-perf bench-serve \
	bench-dynamic bench-ops bench-shard serve-smoke serve-replay-smoke \
	dashboard-smoke profile results full clean

install:
	pip install -e .

test:
	PYTHONPATH=src pytest tests/

# The outside-in benchmark's own tests (bench/): metric catalogue,
# compare verdicts, the tracer, and that every callable bench/layers.py
# wraps still resolves.  Tier-1 does not collect them (testpaths =
# tests).
bench-tests:
	PYTHONPATH=src python -m pytest -q bench/tests

bench:
	PYTHONPATH=src pytest benchmarks/ --benchmark-only

# Perf-layer regression: snapshot-reuse and planner-cache call counts,
# pool parity, tracing and profiler attribution/cost + smoke timings
# (writes one results/BENCH_PR<n>.json per PR).
bench-perf:
	PYTHONPATH=src pytest benchmarks/test_perf_regression.py \
		benchmarks/test_profile_regression.py --benchmark-only

# Serving-throughput regression: micro-batched SolverService on a warm
# engine vs sequential per-request solves at paper scale (speedup floor
# + bit-parity on every greedy answer; writes results/BENCH_PR7.json
# and the serving trace results/serve_bench_trace.jsonl).
bench-serve:
	PYTHONPATH=src pytest benchmarks/test_serving_regression.py \
		--benchmark-only

# Dynamic-repair regression: the dynamic env's epoch sweep (arrivals
# and late workers only) vs the per-epoch rebuild test oracle
# (tests/smore/oracle.py::RebuildDynamicEnv) over a streamed arrival
# schedule at paper scale (per-event speedup floor + bit-identical
# episode + fewer planner calls; writes results/BENCH_PR8.json).
bench-dynamic:
	PYTHONPATH=src pytest benchmarks/test_dynamic_regression.py \
		--benchmark-only

# City-scale sharding regression: the partition/solve/merge sweep at
# small P on a mid-size city instance (P=1 bit-identity, >=3x speedup
# at P=4 on the persistent pool, <=2% coverage gap; writes
# results/BENCH_PR10.json + results/shard_scaling.txt).  Set
# REPRO_BENCH_SHARD_FULL=1 to re-measure the 10k-task curve too.
bench-shard:
	PYTHONPATH=src pytest benchmarks/test_shard_regression.py \
		--benchmark-only

# Telemetry regression: 32-request mixed greedy/sampled journal must
# replay bit-identically; full tracing+SLO+journal overhead stays <2%
# over the telemetry-off path (writes results/BENCH_PR9.json).
bench-ops:
	PYTHONPATH=src pytest benchmarks/test_ops_telemetry_regression.py \
		--benchmark-only

# Serving smoke: 32 concurrent in-process requests through the asyncio
# service with per-request greedy parity checked against direct solves;
# serving metrics (latency percentiles, batch sizes, req/s) land in
# results/serve_smoke_metrics.jsonl.
serve-smoke:
	PYTHONPATH=src python -m repro.serve --requests 32 --instances 6 \
		--density 0.04 --check-parity \
		--metrics results/serve_smoke_metrics.jsonl

# Record/replay smoke: a 16-request workload journaled through the live
# asyncio service, then re-executed from the journal against a freshly
# rebuilt engine — the replay exits non-zero unless every solution
# digest is bit-identical.  The SLO report rides along.
serve-replay-smoke:
	PYTHONPATH=src python -m repro.serve --requests 16 --instances 4 \
		--density 0.03 --journal results/serve_replay_journal.jsonl \
		--slo-report results/serve_slo_report.json
	PYTHONPATH=src python -m repro.serve replay \
		results/serve_replay_journal.jsonl

# Dashboard smoke: render one frame off the serving metrics JSONL in
# CI mode (no terminal clearing); fails if the file or schema is off.
dashboard-smoke:
	PYTHONPATH=src python -m repro.serve --requests 8 --instances 2 \
		--density 0.03 --metrics results/dashboard_smoke_metrics.jsonl
	PYTHONPATH=src python -m repro.obs.dashboard \
		results/dashboard_smoke_metrics.jsonl --frames 1 --no-clear

# Op-level autograd profiles of a smoke solve + training run: per-op
# JSONL summaries and collapsed stacks (flamegraph.pl format) under
# profiles/.
profile:
	mkdir -p profiles
	PYTHONPATH=src python -m repro.obs.profile solve \
		--out profiles/solve.jsonl --collapsed profiles/solve.folded
	PYTHONPATH=src python -m repro.obs.profile train \
		--out profiles/train.jsonl --collapsed profiles/train.folded

# Regenerate every quality artifact under results/: Tables I-III,
# Figures 4-6, the ablations, robustness, optimality gap and scaling.
# The perf gates (*_regression.py) keep their own targets above.
QUALITY_BENCHES = benchmarks/test_table*.py benchmarks/test_figure*.py \
	benchmarks/test_ablation_*.py benchmarks/test_robustness_seeds.py \
	benchmarks/test_optimality_gap.py benchmarks/test_scaling.py

results:
	PYTHONPATH=src pytest $(QUALITY_BENCHES) --benchmark-only

# Larger offline runs (slower; see EXPERIMENTS.md).
full:
	python -m repro.experiments table1 --full
	python -m repro.experiments table2 --full
	python -m repro.experiments table3 --full

# Remove generated caches only; results/ holds committed benchmark
# artefacts (results/BENCH_PR*.json) and must survive a clean.
clean:
	rm -rf .cache .benchmarks profiles
