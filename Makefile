# Convenience targets for the Horse reproduction.

.PHONY: install test lint lint-sim line-budget typecheck check bench bench-quick horsebench horsebench-compare horsebench-pairs run-delta telemetry-gate sweep-smoke wire-smoke examples clean

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
		&& ruff check src tools/simlint \
		|| echo "ruff not installed; skipping (pip install -e .[dev])"
	python tools/check_api_surface.py
	$(MAKE) lint-sim line-budget

# Simulation-correctness linter (determinism / snapshot-safety /
# telemetry-guard / private-access / handler hygiene): src/repro must
# lint clean.  CI's lint step runs this target.
lint-sim:
	PYTHONPATH=tools python -m simlint src/repro

# Line budgets, "paths:budget" per entry.  The flow engine and its
# solver, the CLI plus the one path from a scenario document to a run,
# and the facade stay where the solver / route-cache / compaction knobs'
# deletion landed them: a solver change that needs more has to delete
# something first, the next flag is a row of cli.OVERRIDES, not a
# ladder, and the next knob is a HorseConfig field the component reads,
# not a keyword Horse.__init__ threads.  The one
# OpenFlow interpreter, its analyzer enumeration and the one punt
# protocol stay where PR 21 landed them: a second reading of the rules
# has to displace the first.  The event kernel (kernel, queue, event)
# stays at its tuple-entry, one-queue size: the pending set orders plain
# tuples, reschedule re-stamps the handle and a late push takes a
# reserved seq, so a second queue class, copy path or tie rule has
# nowhere to go; a periodic event is one object that re-arms after its
# callback, so a series handle or a stop exception has nowhere to go
# either; it times events only through the trace bus's span, and an
# event is cancelled only through the kernel.  The wire codec describes each message body
# once, in its _MESSAGES table: a hand-written writer/reader pair has no
# room to come back.  Telemetry plus the monitor keep only what a run
# produces or reads (pull sources, a path-or-memory trace bus whose
# spans are the one record of where the time went, one sample history):
# owned metrics, a stream mode, a second history or a profiler has no
# room to come back.  The linter keeps
# its rules and one gate: a baseline, a reporter, rule selection or a
# plugin registry has no room to come back.
# The output queue's fixed-rate formula path fits beside its one start-event path.
LINE_BUDGETS = \
	"src/repro/flowsim/*.py:2220" \
	"src/repro/cli.py src/repro/runtime/scenario.py:1020" \
	"src/repro/core/simulator.py:390" \
	"src/repro/analysis/walker.py src/repro/openflow/switch.py src/repro/pktsim/engine.py src/repro/sim/engine.py:1090" \
	"src/repro/sim/kernel.py src/repro/sim/queue.py src/repro/sim/event.py:648" \
	"src/repro/pktsim/queues.py:203" \
	"src/repro/wire/codec.py:650" \
	"src/repro/telemetry/*.py src/repro/control/monitor.py:645" \
	"tools/simlint/*.py tools/simlint/rules/*.py:1285"
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
	rm -f .coverage coverage.json coverage.xml
	find . -name __pycache__ -type d -exec rm -rf {} +
