.PHONY: install test lint lint-graph bench figures mix pipeline chaos governor shell analyze optimizer shard failover mvcc wallclock wallclock-smoke scale profile pairs artifacts clean

PYTHON ?= python
# Run the package from the source tree; `make install` is optional.
export PYTHONPATH := src

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# simlint (always available — stdlib only), then ruff/mypy when
# installed; CI installs and runs both unconditionally.  The simlint
# run includes the interprocedural rules (ATOM/PROTO/ESCAPE) built on
# the shared may-yield call graph.
lint:
	$(PYTHON) -m repro lint --timing
	@if command -v ruff >/dev/null 2>&1; then ruff check src; \
	else echo "ruff not installed; skipped (CI runs it)"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy; \
	else echo "mypy not installed; skipped (CI runs it)"; fi

# Dump simlint's interprocedural call graph (may-yield set highlighted)
# for triage; CI uploads the same file as the `lint-graph` artifact
# when the lint job fails.
lint-graph:
	$(PYTHON) -m repro lint --dump-graph lint-graph.dot || true
	@echo "wrote lint-graph.dot (render with: dot -Tsvg lint-graph.dot)"

# Every bench at its one scale: figures and their claims, ablations and
# the gated benches; rewrites results/ and BENCH_*.json byte for byte
# (~90 s; CI's `benches` job fails on any `git diff`).
bench:
	$(PYTHON) -m pytest benchmarks/ --ignore=benchmarks/wallclock

# Regenerate every paper figure into results/ (results/scale_<s>/ when
# REPRO_SCALE is not 0.01) and score every claim of the paper into
# paper_claims.txt beside them; fails on a gated row that does not pass.
# `python -m repro figures all` only prints the figures.
figures:
	$(PYTHON) -m pytest benchmarks/bench_figures.py

# Multi-client workload mix through the query service.
mix:
	$(PYTHON) -m repro mix --clients 8

# Batch-size sweep over the operator pipeline (TTFR, peak rows,
# limit early exit, mix interleaving) -> results/pipeline_batch_sweep.txt.
pipeline:
	$(PYTHON) -m pytest benchmarks/bench_pipeline.py

# One seeded chaos suite through the shared harness, every case
# double-run for determinism; exits nonzero on any contract violation.
# CI's `chaos` matrix job runs: recovery 40 (x 5 crash points),
# service 100, 2pc 25, failover 50 (x sync, async).
SUITE ?= service
CASES ?= 100
chaos:
	$(PYTHON) -m repro chaos --suite $(SUITE) --cases $(CASES)

# Admission control under overload -> results/governor_overload.txt.
governor:
	$(PYTHON) -m pytest benchmarks/bench_governor.py

# Collect optimizer statistics (ANALYZE) and persist them through the
# self-hosted statistics database.
analyze:
	$(PYTHON) -m repro analyze

# Cost-based vs. heuristic planner leaderboard over the Figure 10-15
# matrix -> BENCH_optimizer.json + results/optimizer_leaderboard.txt;
# fails on any semantic mismatch or plan regression.
optimizer:
	$(PYTHON) -m pytest benchmarks/bench_optimizer.py

# Sharded scaling benchmark (1..32 shards, gated on semantic
# equivalence + >=4x scan speedup at 8 shards, 2PC chaos cases clean)
# -> BENCH_sharding.json + results/sharding_scaling.txt.  The chaos
# CLI: make chaos SUITE=2pc.
shard:
	$(PYTHON) -m pytest benchmarks/bench_sharding.py

# Replication availability benchmark (13-query semantic equivalence vs
# an unreplicated cluster, windowed throughput through a primary kill,
# 200 sync + 50 async seeded chaos kills)
# -> BENCH_replication.json + results/replication_availability.txt.
# The chaos CLI: make chaos SUITE=failover.
failover:
	$(PYTHON) -m pytest benchmarks/bench_replication.py

# Snapshot isolation vs strict 2PL on the same contended mix, gated on
# zero reader lock waits, SI throughput > 2PL and identical committed
# end states -> BENCH_mvcc.json + results/mvcc_mix.txt.
mvcc:
	$(PYTHON) -m pytest benchmarks/bench_mvcc.py

# The two-clock benchmark (BENCHMARK.json; benchmarks/wallclock/README.md):
# four workloads, calibrated host seconds and exact call counts beside
# the simulated clock, every simulated digest checked against
# expected.json (~80 s).  `wallclock-smoke` is CI's job: a tenth of the
# scale (~6 s) plus the harness's own tests.
wallclock:
	$(PYTHON) benchmarks/wallclock/run.py

wallclock-smoke:
	$(PYTHON) benchmarks/wallclock/run.py --smoke
	$(PYTHON) -m pytest benchmarks/wallclock -q
	$(PYTHON) benchmarks/bench_scale.py --smoke

# Load at scale: generate + load_derby of the 1:3 / class database at
# scale 0.01, 0.05 and 0.2, one process per scale (~40 s): raw seconds,
# peak RSS, cyclic collections by generation and the simulated seconds
# that must not move -> the `change` rows of BENCH_scale.json.  The
# `parent` rows beside them come from a clone of the parent commit:
#   PYTHONPATH=<clone>/src python benchmarks/bench_scale.py --label parent
# Exits nonzero if simulated seconds differ between the two, a full
# collection ran inside a load, peak RSS grew by more than 2 % or the
# largest scale got no faster.
scale:
	$(PYTHON) benchmarks/bench_scale.py

# One warmed pass of a wall-clock workload (bulk_load, tree_join,
# oql_selection, client_mix) under cProfile: total calls -- that run's
# host_calls -- calls per layer, and the top 40 functions by self time
# and by call count.  Finds candidates; `make wallclock` measures them.
WORKLOAD ?= bulk_load
profile:
	PYTHONHASHSEED=0 $(PYTHON) benchmarks/profile_workload.py $(WORKLOAD) $(PROFILE_FLAGS)

# A perf claim in alternating pairs: BASE checked out into a temporary
# git worktree, then run.py --seconds 8 --trace 0 on it and on this tree
# (or on CHANGE, checked out into a worktree of its own: CHANGE=HEAD
# with BASE=HEAD is an A/A run) at seeds 1..PAIRS, alternating which
# runs first; prints host_s, host_calls, correct and whether the sim_*
# metrics match per pair, then medians, quartiles and wins
# (docs/benchmarking-tips.md).  Minutes long, so CI does not run it.
BASE ?= HEAD
PAIRS ?= 10
CHANGE ?=
pairs:
	$(PYTHON) benchmarks/pairs.py $(BASE) $(WORKLOAD) $(PAIRS) $(CHANGE)

shell:
	$(PYTHON) -m repro shell

artifacts: ## the final run the reproduction ships with
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --ignore=benchmarks/wallclock 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
