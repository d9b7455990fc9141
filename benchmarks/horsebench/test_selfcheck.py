"""Self-check of the benchmark itself (not part of the tier-1 suite).

    python -m pytest benchmarks/horsebench

Runs every workload at its ``--tiny`` size, in this process, untraced
and traced, and checks that the benchmark keeps its own promises: every
metric BENCHMARK.json declares is emitted, span self times add up to
the root span, a missing wrap target degrades to ``null`` instead of a
crash, and the contract's result line has the agreed shape.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from . import metrics, tracer
from .run import ROOT, bootstrap

bootstrap()

from .child import measure  # noqa: E402  (needs the import path above)
from .cli import WORKLOAD_NAMES, contract_line, run_workload  # noqa: E402
from .workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["paths"] == ["benchmarks/horsebench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    } == {name: spec[:3] for name, spec in metrics.END_TO_END.items()}
    assert {
        m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    } == {name: spec[:2] for name, spec in metrics.PER_LAYER.items()}


def test_tiny_workloads_emit_every_metric_within_five_seconds():
    started = time.perf_counter()
    for name in WORKLOAD_NAMES:
        plain = measure(name, seed=5, tiny=True)
        traced = measure(name, seed=5, traced=True, tiny=True)
        assert metrics.valid(plain), plain["violations"]
        assert metrics.valid(traced), traced["violations"]
        assert plain["run_digest"] == traced["run_digest"]

        values = metrics.end_to_end([plain])
        assert set(values) == set(metrics.END_TO_END)
        assert all(v is not None and v > 0 for v in values.values()), values
        assert values["flow_ok_share"] == 1.0

        layer = metrics.per_layer(plain, traced)
        assert set(layer) == set(metrics.PER_LAYER)
        assert all(v is not None for v in layer.values()), layer
        assert traced["trace"]["missing_targets"] == []

        trace = traced["trace"]
        assert trace["root_s"] > 0
        assert abs(trace["self_sum_s"] - trace["root_s"]) <= 0.05 * trace["root_s"]
        shares = sum(layer[metric] for metric in metrics.SHARE_METRICS)
        assert abs(shares - 1.0) <= 0.05, shares
    assert time.perf_counter() - started < 5.0


def test_missing_wrap_target_reads_null_and_does_not_crash(monkeypatch):
    import repro.flowsim.fairshare as fairshare

    # What a later PR that renames the solver looks like to the tracer
    # (the engine keeps its own reference, so the run itself is intact).
    monkeypatch.delattr(fairshare, "IncrementalSolver")
    plain = measure("pod_hotpath", seed=5, tiny=True)
    traced = measure("pod_hotpath", seed=5, traced=True, tiny=True)
    assert metrics.valid(traced)
    assert (
        "repro.flowsim.fairshare:IncrementalSolver.resolve"
        in traced["trace"]["missing_targets"]
    )
    layer = metrics.per_layer(plain, traced)
    assert layer["solve.share"] is None and layer["solve.index_share"] is None
    assert layer["solve.us_per_resolve"] is None and layer["solve.index_ops"] is None
    # The solver's time falls to the layer that called it.
    assert layer["engine.share"] > 0.5
    # Counts from the run's own statistics survive.
    assert layer["solve.resolves"] > 0


def test_tracer_restores_what_it_wrapped():
    from repro.api import Simulator

    before = Simulator.__dict__["schedule"]
    with tracer.Tracer():
        assert Simulator.__dict__["schedule"] is not before
    assert Simulator.__dict__["schedule"] is before


def test_contract_line_from_the_command():
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "packet_reference",
         "--seed", "3", "--seconds", "0", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == set(metrics.PER_LAYER)
    for name, cell in line["metrics"].items():
        assert cell["unit"] == metrics.PER_LAYER[name][0]
        assert isinstance(cell["value"], (int, float))


def test_a_failed_repeat_counts_all_its_flows(monkeypatch):
    from . import cli

    reports = iter([
        {"error": "exit 1: boom", "flows_counted": 0},
    ])
    monkeypatch.setattr(cli, "spawn_child", lambda *a, **k: next(reports))
    entry = run_workload("pod_hotpath", 1, 0, "0", True, log=lambda *_: None)
    assert entry["correct"] is False
    assert entry["end_to_end"]["flow_ok_share"] == 0.0
    line = json.loads(contract_line(entry, "0"))
    assert line["correct"] is False and line["attempted"] >= 1


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
