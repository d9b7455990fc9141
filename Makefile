# Convenience targets for the Horse reproduction.

.PHONY: install test lint lint-sim line-budget typecheck check bench bench-quick horsebench horsebench-compare horsebench-pairs run-delta telemetry-gate sweep-smoke shard-smoke wire-smoke examples clean

install:
	pip install -e . || python setup.py develop

# With pytest-cov available (CI installs the dev extras) the suite runs
# under coverage and tools/check_coverage.py enforces the floor on
# src/repro/hybrid/; without it (the sandboxed test image) the suite
# runs plain so `make test` never depends on an uninstalled plugin.
test:
	@if python -c "import pytest_cov" >/dev/null 2>&1; then \
		mkdir -p build && \
		pytest tests/ --cov=repro --cov-report=term \
			--cov-report=json:build/coverage.json && \
		python tools/check_coverage.py build/coverage.json; \
	else \
		echo "pytest-cov not installed; running without coverage"; \
		pytest tests/; \
	fi

# lint/typecheck degrade to a notice when the tool is not installed
# (the sandboxed test image ships the runtime deps only; CI installs
# the dev extras).
lint:
	@command -v ruff >/dev/null 2>&1 \
		&& ruff check src \
		|| echo "ruff not installed; skipping (pip install -e .[dev])"
	python tools/check_api_surface.py
	$(MAKE) lint-sim line-budget

# Simulation-correctness linter (determinism / snapshot-safety /
# telemetry-guard / private-access / handler hygiene): must stay clean
# against the shipped (empty) baseline.
lint-sim:
	mkdir -p build
	PYTHONPATH=src python -m repro lint src/repro \
		--baseline tools/lint-baseline.json --format sarif \
		--output build/lint.sarif --strict

# Line budgets, "paths:budget" per entry.  The flow engine and its
# solver stay under 2 300 lines (ROADMAP item 4): a solver change that
# needs more has to delete something first.  The CLI plus the one path
# from a scenario document to a run (ROADMAP item 5) stay where PR 19
# landed them: the next flag is a row of cli.OVERRIDES, not a ladder.
# The facade stays where PR 20 landed it: the next knob is a HorseConfig
# field the component reads, not a keyword Horse.__init__ threads.
LINE_BUDGETS = \
	"src/repro/flowsim/*.py:2300" \
	"src/repro/cli.py src/repro/runtime/scenario.py:1100" \
	"src/repro/core/simulator.py:400"
line-budget:
	@for entry in $(LINE_BUDGETS); do \
		paths=$${entry%:*}; budget=$${entry##*:}; \
		lines=$$(cat $$paths | wc -l); \
		echo "$$paths: $$lines lines (budget $$budget)"; \
		test $$lines -le $$budget || exit 1; \
	done

typecheck:
	@command -v mypy >/dev/null 2>&1 \
		&& mypy src/repro \
		|| echo "mypy not installed; skipping (pip install -e .[dev])"

check: lint typecheck test

bench:
	pytest benchmarks/ --benchmark-only

bench-quick:
	pytest benchmarks/bench_e1_scale_topology.py benchmarks/bench_e3_accuracy.py --benchmark-only

# The repository's benchmark (BENCHMARK.json): four whole-run workloads,
# end-to-end metrics plus the per-layer traced run (~2 min).
horsebench:
	mkdir -p build
	python3 benchmarks/horsebench/run.py --traced --json build/horsebench.json

# Two result sets -> ok / regressed / unresolved per (workload, metric):
#   make horsebench-compare A=before.json B=after.json
horsebench-compare:
	python3 benchmarks/horsebench/compare.py $(A) $(B)

# N interleaved parent/change pairs of one workload, run as the driver
# runs it, judged per metric by the nine-in-ten + quartile-gap rule:
#   make horsebench-pairs PARENT=../parent W=pod_hotpath [SEEDS="11 12"] [N=10]
# PARENT is a checkout of the parent commit on this filesystem
# (git clone or git worktree); the change is this checkout.
SEEDS ?= 11 12
N ?= 10
horsebench-pairs:
	python3 tools/bench_pairs.py --parent $(PARENT) --workload $(W) \
		--seeds $(SEEDS) --pairs $(N)

# One run of a workload from each checkout, compared flow by flow: how
# far apart are two runs whose digests differ?
#   make run-delta PARENT=../parent W=ixp_replay [S=11]
S ?= 11
run-delta:
	python3 tools/run_delta.py --parent $(PARENT) --workload $(W) --seed $(S)

# Disabled telemetry must cost <5% on the hot path (vs BENCH_e2.json).
telemetry-gate:
	python -m benchmarks.telemetry_gate

# Crash-isolation smoke: a 4-job sweep on 2 workers with one injected
# worker crash must retry the job and still complete 4/4.
sweep-smoke:
	rm -rf .sweep-smoke
	python -m repro sweep examples/scenarios/sweep_smoke.json \
		--out .sweep-smoke --workers 2
	@python -c "import json; \
		r = json.load(open('.sweep-smoke/report.json')); \
		assert r['execution']['retried'] == [2], r['execution']; \
		assert not r['summary']['failed'], r['summary']; \
		print('sweep-smoke: crash retried, 4/4 jobs completed')"

# Sharded-runtime smoke: k=1 must reproduce the committed golden
# digests bit for bit, and a k=4 run with one injected shard crash
# must restart the shard and finish with results identical to a clean
# k=4 run.
shard-smoke:
	python tools/shard_smoke.py

# External control-plane smoke: `repro serve` + `repro wire-client` in
# separate processes over a real TCP socket; asserts clean shutdown
# (wire.active_connections 0) and full delivery.
wire-smoke:
	python tools/wire_smoke.py

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		python $$script || exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks .sweep-smoke build
	rm -f lint.sarif .coverage coverage.json coverage.xml
	find . -name __pycache__ -type d -exec rm -rf {} +
