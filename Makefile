# Development entry points.  `make check` is the full gate CI runs.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint analyze test test-deprecations bench bench-smoke bench-protocol bench-dynamics bench-analyzer bench-flat bench-timed sanitize-test test-engines test-timed trace-smoke

check:
	$(PYTHON) -m repro.devtools.check

lint:
	$(PYTHON) -m repro.devtools.lint

# interprocedural determinism/contract analyzer (RPR007-RPR010):
# fails on any finding not grandfathered by flow_baseline.json, and on
# stale `# repro-lint: ok` suppressions
analyze:
	$(PYTHON) -m repro.devtools.flow src/repro
	$(PYTHON) -m repro.devtools.flow src/repro --check-suppressions

test:
	$(PYTHON) -m pytest -x -q

# the suite with DeprecationWarning promoted to an error: no code the
# suite runs may call a deprecated API
test-deprecations:
	$(PYTHON) -m pytest -x -q -W error::DeprecationWarning

# the whole suite doubles as a sanitizer stress test: every protocol
# run is invariant-checked end to end
sanitize-test:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -x -q

# cross-engine differential harness: every registered engine must
# agree with the reference (golden fixtures, the flat sweep's prices
# and error witnesses on tie-heavy and cut-vertex graphs, zero-cost
# exactness, the canonical forest builder's exact routes, the
# incremental engine's repaired trees and prices after every epoch),
# with the runtime sanitizer enabled
test-engines:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -x -q \
		tests/test_engine_differential.py \
		tests/test_golden_engines.py \
		tests/test_flat_engine.py \
		tests/test_engine_registry.py \
		tests/test_canonical_forest.py \
		tests/test_incremental_engine.py

# timed-substrate differential suite: the asynchronous run's golden
# schedule/model pins (FIFO and reordered links), centralized parity
# under every delay/MRAI setting, determinism, fault sequences, MRAI
# accounting, and the golden JSONL trace (CI=1 widens Hypothesis)
test-timed:
	$(PYTHON) -m pytest -x -q \
		tests/test_timed_protocol.py \
		tests/test_timed_golden_trace.py

# observability smoke test: record one experiment as a JSONL trace,
# schema-validate it, and summarize the paper's complexity measures
trace-smoke:
	$(PYTHON) -m repro.cli run E1 --trace /tmp/repro-trace-smoke.jsonl
	$(PYTHON) -m repro.cli trace validate /tmp/repro-trace-smoke.jsonl
	$(PYTHON) -m repro.cli trace summarize /tmp/repro-trace-smoke.jsonl

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# benchmark-suite smoke test: every BENCHMARK.json workload at toy size,
# untraced and traced, through the suite's own run.py (its layer
# wrapping and its engine imports included)
bench-smoke:
	$(PYTHON) -m pytest -q benchmarks/suite/test_smoke.py

# protocol transport benchmark: full-table vs delta substrate; writes
# BENCH_protocol.json at the repo root (quick sizes; drop --quick for
# the full sweep up to n = 200)
bench-protocol:
	$(PYTHON) benchmarks/bench_protocol_scaling.py --quick --out BENCH_protocol.json

# dynamics benchmark: incremental warm-start engine vs from-scratch
# reference across a scripted event sequence; writes BENCH_dynamics.json
# at the repo root and exits non-zero unless every epoch is bit-identical
# to the cold reference (quick: 4 events at n = 200; drop --quick for 12)
bench-dynamics:
	$(PYTHON) benchmarks/bench_dynamics_incremental.py --quick --out BENCH_dynamics.json

# timed-substrate benchmark: delay/MRAI grid vs the synchronous Sect. 5
# baseline; writes BENCH_timed.json at the repo root and exits non-zero
# unless every configuration converges to the centralized model
bench-timed:
	$(PYTHON) benchmarks/bench_timed_protocol.py --quick --out BENCH_timed.json

# flat-sweep benchmark: the batched k-avoiding price core; writes
# BENCH_flat.json at the repo root and exits non-zero unless the flat
# engine matches the reference/legacy tables, beats the legacy
# vectorized sweep by >= 5x at n = 500, and prices the n = 1000
# ISP-like preset within its demand-derived memory bound
bench-flat:
	$(PYTHON) benchmarks/bench_flat_sweep.py --out BENCH_flat.json

# analyzer wall-clock benchmark: full-tree analysis must stay under
# ~5 s so the contract gate remains a per-commit check; writes
# BENCH_analyzer.json at the repo root
bench-analyzer:
	$(PYTHON) benchmarks/bench_analyzer.py --out BENCH_analyzer.json
