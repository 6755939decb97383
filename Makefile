PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-smoke bench-fast bench-kernel perf-check check chaos ckpt py310-check lint fig03-check cluster-check profile

test:
	$(PYTHON) -m pytest -x -q tests/

bench:
	$(PYTHON) -m pytest -q benchmarks/ --benchmark-only

bench-smoke:
	REPRO_BENCH_SCALE=smoke REPRO_JOBS=2 $(PYTHON) -m pytest -q benchmarks/ --benchmark-only

# Engine microbenchmarks only (seconds, not minutes); raw results land
# in the gitignored benchmarks/out/ so ad-hoc runs never pollute the
# tree. Refresh benchmarks/BENCH_engine.json from the JSON this writes
# (workflow: benchmarks/README.md).
bench-fast:
	mkdir -p benchmarks/out
	$(PYTHON) -m pytest -q benchmarks/bench_engine.py --benchmark-only \
		--benchmark-json=benchmarks/out/bench_engine.json \
		| tee benchmarks/out/bench_engine.txt

# Events/sec gate against the committed baseline (+/-25%;
# REPRO_PERF_CHECK=off skips, REPRO_PERF_TOL widens).
perf-check:
	$(PYTHON) tools/perf_check.py

# Kernel perf tier: the DRAM-traffic window and the uncore-churn
# microbench (the SoA channel and uncore kernels' target workloads,
# also covered by the perf gate) plus a cold-serial fig03 wall-clock
# timing — the end-to-end number the kernels exist to improve.
# Skipped, like the perf gate, with REPRO_PERF_CHECK=off.
bench-kernel:
	@case "$${REPRO_PERF_CHECK:-on}" in \
	off|0|no|false) echo "bench-kernel: skipped (REPRO_PERF_CHECK=off)";; \
	*) mkdir -p benchmarks/out && \
		$(PYTHON) -m pytest -q benchmarks/bench_engine.py --benchmark-only \
			-k "dram or uncore" \
			--benchmark-json=benchmarks/out/bench_kernel.json && \
		REPRO_JOBS=1 REPRO_CACHE_DIR=$$(mktemp -d) \
			$(PYTHON) tools/fig03_check.py --time;; \
	esac

# Profile tier (diagnostic, not a gate): one short fig03 point under
# cProfile, top-20 cumulative. Compare implementations with e.g.
# `REPRO_UNCORE=off make profile` / `REPRO_KERNEL=off make profile`.
profile:
	$(PYTHON) tools/profile_check.py

# Python-version-floor gate (requires-python = ">=3.10"): 3.11+-API
# lint, plus byte-compile + validated smoke under a real 3.10 when one
# is installed.
py310-check:
	$(PYTHON) tools/py310_check.py

# Lint tier: ruff check at the version pinned in pyproject.toml
# ([tool.ruff] required-version); falls back to a stdlib subset lint
# (syntax, unused imports, duplicate defs) where ruff isn't installed.
lint:
	$(PYTHON) tools/lint_check.py

# Bit-exactness tier: the committed fig03 fingerprint
# (tests/data/fig03_fingerprint.json) must match the live sweep
# hex-float for hex-float. Refresh intentionally with --write.
fig03-check:
	$(PYTHON) tools/fig03_check.py

# Cluster bit-exactness tier: the committed 2-host RDMA smoke
# fingerprint (tests/data/cluster_fingerprint.json) locks the
# multi-host coupling stack — namespaced hosts on one engine, fabric
# queues, PFC, per-flow goodput — across commits (tools/cluster_check.py).
cluster-check:
	$(PYTHON) tools/cluster_check.py

# Chaos tier: the fast-scale fig03 sweep under deterministically
# injected worker kills, transient exceptions and cache corruption
# must stay float-identical to a fault-free run, with every recovered
# TaskFailure reported (tools/chaos_check.py). REPRO_BENCH_SCALE=smoke
# shrinks it for quick local iteration.
chaos:
	$(PYTHON) tools/chaos_check.py

# Checkpoint tier: one fig03 point is SIGTERM-killed at two successive
# checkpoints and resumed across real processes; the twice-resumed
# RunResult must be bit-identical to the committed fingerprint under
# (REPRO_KERNEL, REPRO_UNCORE) = (on, on), (off, on) and (on, off)
# (tools/ckpt_check.py).
ckpt:
	$(PYTHON) tools/ckpt_check.py

# PR smoke gate: lint + version-floor gates, tier-1 tests plus
# smoke-scale benches, exercising the parallel sweep path
# (REPRO_JOBS=2) against a cold cache — once plain and once with
# runtime invariant checking (REPRO_VALIDATE=1), which must pass with
# zero violations — the fig03 and cluster bit-exactness gates, the
# engine perf gate, the kernel perf tier, the chaos tier, and the
# checkpoint kill/resume tier.
check: py310-check lint
	$(PYTHON) -m pytest -x -q tests/
	$(PYTHON) tools/fig03_check.py
	$(PYTHON) tools/cluster_check.py
	$(PYTHON) tools/perf_check.py
	$(MAKE) bench-kernel
	REPRO_BENCH_SCALE=smoke REPRO_JOBS=2 REPRO_CACHE_DIR=$$(mktemp -d) \
		$(PYTHON) -m pytest -q benchmarks/ --benchmark-only
	REPRO_VALIDATE=1 REPRO_BENCH_SCALE=smoke REPRO_JOBS=2 \
		REPRO_CACHE_DIR=$$(mktemp -d) \
		$(PYTHON) -m pytest -q benchmarks/ --benchmark-only
	$(PYTHON) tools/chaos_check.py
	$(PYTHON) tools/ckpt_check.py
