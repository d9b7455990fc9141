"""Unit tests for the sweep runner: seeds, expansion, pool, manifests."""

import json
import os
import time

import pytest

from repro.errors import SweepError
from repro.runtime import (
    SweepSpec,
    aggregate_report,
    expand_jobs,
    resume_sweep,
    run_jobs,
    run_sweep,
    save_checkpoint,
)
from repro.runtime.scenario import build_horse, build_traffic, reset_id_counters
from repro.runtime.sweep import _job_path, _sweep_worker
from repro.sim.rng import spawn_seed

BASE_SCENARIO = {
    "engine": "flow",
    "until": 2.0,
    "topology": {"kind": "star", "hosts": 4},
    "policies": {"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
    "traffic": {"kind": "matrix", "total": "50 Mbps", "horizon_s": 1.0},
}


def make_spec(**runtime):
    doc = {
        "name": "unit",
        "base": BASE_SCENARIO,
        # Axes out of alphabetical order: a resume must re-expand the
        # jobs in the spec's order, not in the manifest file's key order.
        "grid": {"traffic.total": ["50 Mbps", "80 Mbps"], "topology.hosts": [4, 5]},
        "runtime": dict(
            {"seed": 9, "retries": 2, "backoff_s": 0.01, "timeout_s": 120},
            **runtime,
        ),
    }
    return SweepSpec.from_dict(doc)


class TestSpawnSeed:
    def test_stable(self):
        assert spawn_seed(7, "job", 3) == spawn_seed(7, "job", 3)

    def test_distinct_per_index(self):
        seeds = {spawn_seed(7, "job", i) for i in range(200)}
        assert len(seeds) == 200

    def test_distinct_per_master(self):
        assert spawn_seed(1, "job", 0) != spawn_seed(2, "job", 0)

    def test_key_parts_are_tagged_not_concatenated(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert spawn_seed(0, "ab", "c") != spawn_seed(0, "a", "bc")

    def test_range_is_63_bit_non_negative(self):
        for i in range(50):
            seed = spawn_seed(123, i)
            assert 0 <= seed < 2**63


class TestExpansion:
    def test_product_order_and_dotted_paths(self):
        jobs = expand_jobs(make_spec())
        assert [job.index for job in jobs] == [0, 1, 2, 3]
        assert [job.params for job in jobs] == [
            {"traffic.total": "50 Mbps", "topology.hosts": 4},
            {"traffic.total": "50 Mbps", "topology.hosts": 5},
            {"traffic.total": "80 Mbps", "topology.hosts": 4},
            {"traffic.total": "80 Mbps", "topology.hosts": 5},
        ]
        assert jobs[1].scenario["topology"]["hosts"] == 5
        assert jobs[2].scenario["traffic"]["total"] == "80 Mbps"

    def test_per_job_seeds_are_spawned_from_sweep_seed(self):
        jobs = expand_jobs(make_spec())
        for job in jobs:
            assert job.seed == spawn_seed(9, "job", job.index)
            assert job.scenario["seed"] == job.seed
        assert len({job.seed for job in jobs}) == len(jobs)

    def test_seed_grid_axis_wins(self):
        spec = SweepSpec.from_dict(
            {"base": BASE_SCENARIO, "grid": {"seed": [11, 22]}}
        )
        assert [job.seed for job in expand_jobs(spec)] == [11, 22]

    def test_spec_validation(self):
        with pytest.raises(SweepError, match="'base'"):
            SweepSpec.from_dict({"grid": {"seed": [1]}})
        with pytest.raises(SweepError, match="grid"):
            SweepSpec.from_dict({"base": {}, "grid": {}})
        with pytest.raises(SweepError, match="non-empty list"):
            SweepSpec.from_dict({"base": {}, "grid": {"x": []}})

    def test_grid_axis_that_names_no_scenario_key_is_an_error(self):
        """A typo used to expand to N identical jobs."""
        from repro.errors import ExperimentError

        for axis, message in [
            ("solvr", "solvr: unknown key"),
            ("hybrid.selec", "hybrid.selec: unknown key"),
        ]:
            spec = SweepSpec.from_dict(
                {"base": BASE_SCENARIO, "grid": {axis: ["a", "b"]}}
            )
            with pytest.raises(ExperimentError, match=f"^{message}$"):
                expand_jobs(spec)

    def test_grid_axes_edit_the_migrated_document(self):
        """A v0 flat key keeps its value under an axis of its v1 section."""
        spec = SweepSpec.from_dict(
            {
                "base": dict(BASE_SCENARIO, hybrid_select="top:2"),
                "grid": {"hybrid.sync_interval_s": [0.5, 1.0]},
            }
        )
        assert [job.scenario["hybrid"] for job in expand_jobs(spec)] == [
            {"select": "top:2", "sync_interval_s": 0.5},
            {"select": "top:2", "sync_interval_s": 1.0},
        ]
        assert spec.base["hybrid_select"] == "top:2"  # the spec itself is untouched

    def test_base_file_resolved_relative_to_spec(self, tmp_path):
        with open(tmp_path / "base.json", "w") as handle:
            json.dump(BASE_SCENARIO, handle)
        spec_path = str(tmp_path / "sweep.json")
        with open(spec_path, "w") as handle:
            json.dump(
                {"base_file": "base.json", "grid": {"seed": [1]}}, handle
            )
        spec = SweepSpec.from_file(spec_path)
        assert spec.base["topology"] == BASE_SCENARIO["topology"]


def _crash_then_succeed(payload):
    if payload["attempt"] <= payload["crashes"]:
        os._exit(23)
    return {"index": payload["index"], "attempt": payload["attempt"]}


def _hang(payload):
    time.sleep(60)
    return {}


def _ok(payload):
    return {"index": payload["index"]}


class TestPool:
    def test_crash_is_isolated_and_retried(self, tmp_path):
        out = str(tmp_path / "r0.json")
        outcomes = run_jobs(
            [{"index": 0, "crashes": 1}],
            _crash_then_succeed,
            [out],
            workers=2,
            retries=2,
            backoff_s=0.01,
        )
        assert outcomes[0].ok
        assert outcomes[0].attempts == 2
        with open(out) as handle:
            assert json.load(handle)["attempt"] == 2

    def test_exhausted_retries_reports_failure(self, tmp_path):
        outcomes = run_jobs(
            [{"index": 0, "crashes": 99}],
            _crash_then_succeed,
            [str(tmp_path / "r0.json")],
            retries=1,
            backoff_s=0.01,
        )
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 2
        assert "exit code 23" in outcomes[0].error

    def test_one_crash_never_kills_other_jobs(self, tmp_path):
        payloads = [{"index": i, "crashes": 99 if i == 1 else 0} for i in range(4)]
        outcomes = run_jobs(
            payloads,
            _crash_then_succeed,
            [str(tmp_path / f"r{i}.json") for i in range(4)],
            workers=2,
            retries=0,
        )
        assert [o.ok for o in outcomes] == [True, False, True, True]

    def test_timeout_terminates_hung_worker(self, tmp_path):
        start = time.monotonic()
        outcomes = run_jobs(
            [{"index": 0}],
            _hang,
            [str(tmp_path / "r0.json")],
            timeout_s=0.3,
            retries=0,
        )
        assert not outcomes[0].ok
        assert "timed out" in outcomes[0].error
        assert time.monotonic() - start < 30

    def test_validation(self, tmp_path):
        with pytest.raises(SweepError, match="output paths"):
            run_jobs([{}], _ok, [])
        with pytest.raises(SweepError, match="worker"):
            run_jobs([{}], _ok, [str(tmp_path / "x")], workers=0)
        with pytest.raises(SweepError, match="retries"):
            run_jobs([{}], _ok, [str(tmp_path / "x")], retries=-1)


class TestSweepExecution:
    def test_parallel_crashy_sweep_matches_serial_report(self, tmp_path):
        """The acceptance scenario: 4 jobs on 2 workers with one
        injected crash must retry, complete, and aggregate to exactly
        the serial (fault-free) report."""
        events = []
        crashy = run_sweep(
            make_spec(fault={"job": 2, "crashes": 1}),
            str(tmp_path / "par"),
            workers=2,
            on_event=lambda *args: events.append(args),
        )
        serial = run_sweep(make_spec(), str(tmp_path / "ser"), workers=1)
        assert crashy["results"] == serial["results"]
        assert crashy["summary"] == serial["summary"]
        assert crashy["summary"]["completed"] == 4
        assert crashy["execution"]["retried"] == [2]
        kinds = [e[0] for e in events if e[1] == 2]
        assert "crash" in kinds and "retry" in kinds and "ok" in kinds

    def test_report_and_manifest_on_disk(self, tmp_path):
        out = str(tmp_path / "sweep")
        report = run_sweep(make_spec(), out, workers=2)
        with open(os.path.join(out, "report.json")) as handle:
            assert json.load(handle) == report
        with open(os.path.join(out, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert [e["status"] for e in manifest["jobs"]] == ["done"] * 4
        assert report["summary"]["failed"] == []
        for entry in report["results"]:
            assert entry["result"]["engine_stats"]["engine"] == "flow"

    def test_resume_reruns_only_unfinished_jobs(self, tmp_path):
        out = str(tmp_path / "sweep")
        original = run_sweep(make_spec(), out, workers=2)
        # Simulate an interrupted sweep: forget job 2's completion.
        manifest_path = os.path.join(out, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["jobs"][2]["status"] = "pending"
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        os.unlink(_job_path(out, 2))

        reran = []
        resumed = resume_sweep(
            out, on_event=lambda kind, index, *rest: reran.append((kind, index))
        )
        assert ("start", 2) in reran
        assert all(index == 2 for _, index in reran)
        assert resumed["results"] == original["results"]
        assert resumed["summary"] == original["summary"]

    def test_resume_of_completed_sweep_is_a_no_op(self, tmp_path):
        out = str(tmp_path / "sweep")
        original = run_sweep(make_spec(), out, workers=2)
        reran = []
        resumed = resume_sweep(
            out, on_event=lambda kind, index, *rest: reran.append(kind)
        )
        assert reran == []
        assert resumed["results"] == original["results"]

    def test_failed_job_reported_not_raised(self, tmp_path):
        report = run_sweep(
            make_spec(fault={"job": 1, "crashes": 99}, retries=1),
            str(tmp_path / "sweep"),
            workers=2,
        )
        assert report["summary"]["failed"] == [1]
        assert report["summary"]["completed"] == 3
        assert len(report["results"]) == 3

    def test_resume_rejects_missing_manifest(self, tmp_path):
        with pytest.raises(SweepError, match="manifest"):
            resume_sweep(str(tmp_path / "nothing"))


class TestWorkerCheckpointResume:
    def test_worker_resumes_from_periodic_checkpoint(self, tmp_path):
        """A retry after a mid-run crash picks up from the last periodic
        checkpoint instead of starting over, and lands on the same
        result as an uninterrupted job."""
        scenario = dict(BASE_SCENARIO, seed=33)
        ckpt = str(tmp_path / "job.ckpt")

        fresh = _sweep_worker(
            {"index": 0, "params": {}, "scenario": scenario, "attempt": 1}
        )
        assert fresh["execution"]["resumed_from_checkpoint"] is False

        # Fake the crashed first attempt's leftover: a mid-run snapshot.
        reset_id_counters()
        horse, fabric = build_horse(scenario)
        build_traffic(scenario["traffic"], horse, fabric)
        horse.run(until=1.0)
        save_checkpoint(horse, ckpt)

        retried = _sweep_worker(
            {
                "index": 0,
                "params": {},
                "scenario": scenario,
                "attempt": 2,
                "checkpoint_path": ckpt,
                "checkpoint_interval_s": 0.5,
            }
        )
        assert retried["execution"]["resumed_from_checkpoint"] is True
        assert not os.path.exists(ckpt)  # cleaned up after success
        assert retried["result"] == fresh["result"]


def test_aggregate_report_is_pure_recomputation(tmp_path):
    out = str(tmp_path / "sweep")
    report = run_sweep(make_spec(), out, workers=2)
    again = aggregate_report(out)
    assert again["results"] == report["results"]
    assert again["summary"] == report["summary"]
