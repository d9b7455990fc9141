"""CLI tests: topo/info/run subcommands end to end."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def topo_file(tmp_path):
    path = str(tmp_path / "topo.json")
    assert main(["topo", "--kind", "fat-tree", "--k", "4", "--out", path]) == 0
    return path


class TestTopoCommands:
    def test_generate_fat_tree(self, topo_file):
        with open(topo_file) as handle:
            doc = json.load(handle)
        assert len(doc["nodes"]) == 36
        assert len(doc["links"]) == 48

    def test_generate_ixp(self, tmp_path, capsys):
        path = str(tmp_path / "ixp.json")
        rc = main(
            ["topo", "--kind", "ixp", "--members", "8", "--seed", "3",
             "--out", path]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "members" not in out or path in out

    def test_info(self, topo_file, capsys):
        assert main(["info", topo_file]) == 0
        out = capsys.readouterr().out
        assert "hosts    : 16" in out
        assert "switches : 20" in out

    def test_info_missing_file(self, tmp_path, capsys):
        rc = main(["info", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestRunCommand:
    def _scenario(self, tmp_path, **overrides):
        scenario = {
            "engine": "flow",
            "seed": 5,
            "until": 30.0,
            "topology": {"kind": "star", "hosts": 4},
            "policies": {
                "forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}
            },
            "traffic": {
                "kind": "matrix",
                "model": "uniform",
                "total": "50 Mbps",
                "horizon_s": 1.0,
            },
        }
        scenario.update(overrides)
        path = str(tmp_path / "scenario.json")
        with open(path, "w") as handle:
            json.dump(scenario, handle)
        return path

    def test_run_prints_summary(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "run summary" in out
        assert "flows submitted" in out

    def test_run_writes_artifacts(self, tmp_path):
        path = self._scenario(tmp_path)
        csv_path = str(tmp_path / "flows.csv")
        json_path = str(tmp_path / "run.json")
        rc = main(["run", path, "--flows-csv", csv_path, "--json", json_path])
        assert rc == 0
        with open(json_path) as handle:
            doc = json.load(handle)
        assert doc["delivered_fraction"] == 1.0
        with open(csv_path) as handle:
            assert handle.readline().startswith("flow_id,")

    def test_run_from_topology_file(self, tmp_path, topo_file):
        path = self._scenario(tmp_path, topology={"file": topo_file})
        assert main(["run", path]) == 0

    def test_run_with_trace_traffic(self, tmp_path):
        # Build a trace against the same star topology.
        import random

        from repro.net.generators import single_switch
        from repro.traffic import FlowGenerator, TrafficMatrix, save_trace

        topo = single_switch(4)
        tm = TrafficMatrix.uniform([h.name for h in topo.hosts], 10e6)
        flows = FlowGenerator(topo, random.Random(1)).from_matrix(tm, 1.0)
        trace_path = str(tmp_path / "trace.jsonl")
        save_trace(flows, trace_path)
        path = self._scenario(
            tmp_path, traffic={"kind": "trace", "file": trace_path}
        )
        assert main(["run", path]) == 0

    def test_gravity_ixp_requires_ixp_topology(self, tmp_path, capsys):
        path = self._scenario(
            tmp_path,
            traffic={"kind": "matrix", "model": "gravity-ixp",
                     "total": "1 Gbps"},
        )
        assert main(["run", path]) == 1
        assert "gravity-ixp" in capsys.readouterr().err

    def test_gravity_ixp_with_ixp_topology(self, tmp_path, capsys):
        path = self._scenario(
            tmp_path,
            topology={"kind": "ixp", "members": 8, "seed": 1},
            traffic={
                "kind": "matrix",
                "model": "gravity-ixp",
                "total": "1 Gbps",
                "horizon_s": 0.5,
            },
        )
        assert main(["run", path]) == 0

    def test_unknown_topology_kind(self, tmp_path, capsys):
        path = self._scenario(tmp_path, topology={"kind": "torus"})
        assert main(["run", path]) == 1

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("telemetry.link_sample_interval_s",
             {"telemetry": {"link_sample_interval_s": -0.5}}),
            ("telemetry.monitor_interval_s",
             {"telemetry": {"monitor_interval_s": -0.5}}),
            ("entry_expiry_interval_s", {"entry_expiry_interval_s": -0.5}),
        ],
    )
    def test_negative_interval_is_a_one_line_error(
        self, tmp_path, capsys, field, overrides
    ):
        path = self._scenario(tmp_path, schema_version=1, **overrides)
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} ") and err.count("\n") == 1

    def test_bad_scenario_json(self, tmp_path, capsys):
        path = str(tmp_path / "broken.json")
        with open(path, "w") as handle:
            handle.write("{not json")
        assert main(["run", path]) == 1

    def test_run_json_has_engine_stats(self, tmp_path):
        path = self._scenario(tmp_path)
        json_path = str(tmp_path / "run.json")
        assert main(["run", path, "--json", json_path]) == 0
        with open(json_path) as handle:
            stats = json.load(handle)["engine_stats"]
        assert stats["engine"] == "flow"
        assert stats["solver_mode"] == "incremental"
        for key in ("route_cache_hits", "route_cache_misses", "rate_solves"):
            assert isinstance(stats[key], int)
        assert "resolves" in stats["solver"]

    def test_identical_runs_emit_identical_json(self, tmp_path):
        """Two identical invocations must produce byte-identical run
        documents modulo the wall-clock field."""
        path = self._scenario(tmp_path)
        docs = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / name)
            assert main(["run", path, "--json", out]) == 0
            with open(out) as handle:
                doc = json.load(handle)
            assert doc.pop("wall_time_s") > 0
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_full_round_trip_topo_info_run(self, tmp_path, capsys):
        """topo -> info -> run entirely through the CLI on a temp dir."""
        topo_path = str(tmp_path / "rt.json")
        assert main(
            ["topo", "--kind", "leaf-spine", "--out", topo_path]
        ) == 0
        assert main(["info", topo_path]) == 0
        scenario = self._scenario(tmp_path, topology={"file": topo_path})
        assert main(["run", scenario]) == 0
        out = capsys.readouterr().out
        assert "run summary" in out


class TestCheckpointCommands:
    def _scenario(self, tmp_path):
        return TestRunCommand()._scenario(tmp_path, until=5.0)

    def test_checkpoint_then_restore(self, tmp_path, capsys):
        scenario = self._scenario(tmp_path)
        ckpt = str(tmp_path / "state.ckpt")
        assert main(
            ["run", scenario, "--until", "1.0", "--checkpoint", ckpt]
        ) == 0
        assert main(
            ["run", "--restore", ckpt, "--until", "5.0",
             "--json", str(tmp_path / "restored.json")]
        ) == 0
        out = capsys.readouterr().out
        assert "restored checkpoint" in out
        with open(tmp_path / "restored.json") as handle:
            doc = json.load(handle)
        assert doc["sim_time_s"] == 5.0

    def test_restored_run_matches_straight_run(self, tmp_path):
        import pytest

        scenario = self._scenario(tmp_path)
        ckpt = str(tmp_path / "state.ckpt")
        assert main(
            ["run", scenario, "--until", "1.0", "--checkpoint", ckpt]
        ) == 0
        assert main(
            ["run", "--restore", ckpt, "--until", "5.0",
             "--json", str(tmp_path / "restored.json")]
        ) == 0
        assert main(
            ["run", scenario, "--json", str(tmp_path / "straight.json")]
        ) == 0
        docs = []
        for name in ("restored.json", "straight.json"):
            with open(tmp_path / name) as handle:
                doc = json.load(handle)
            doc.pop("wall_time_s")
            docs.append(doc)
        restored, straight = docs
        # The interruption splits running float sums at t=1, so the two
        # aggregate statistics derived from them may differ in the last
        # ulp; everything else — flows, events, counters — is exact.
        for key in ("fairness", "goodput_bps"):
            assert restored.pop(key) == pytest.approx(
                straight.pop(key), rel=1e-9
            )
        assert json.dumps(restored, sort_keys=True) == json.dumps(
            straight, sort_keys=True
        )

    def test_periodic_checkpoint_flag(self, tmp_path):
        scenario = self._scenario(tmp_path)
        ckpt = str(tmp_path / "tick.ckpt")
        assert main(
            ["run", scenario, "--checkpoint", ckpt,
             "--checkpoint-interval", "1.0"]
        ) == 0
        from repro.runtime import read_checkpoint_header

        assert read_checkpoint_header(ckpt)["meta"]["sim_time_s"] > 0

    def test_scenario_and_restore_are_exclusive(self, tmp_path, capsys):
        scenario = self._scenario(tmp_path)
        assert main(["run", scenario, "--restore", "x.ckpt"]) == 1
        assert "not both" in capsys.readouterr().err

    def test_run_needs_scenario_or_restore(self, capsys):
        assert main(["run"]) == 1
        assert "required" in capsys.readouterr().err


class TestSweepCommands:
    def _spec(self, tmp_path, **runtime):
        doc = {
            "name": "cli-sweep",
            "base": {
                "engine": "flow",
                "until": 2.0,
                "topology": {"kind": "star", "hosts": 4},
                "policies": {
                    "forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}
                },
                "traffic": {
                    "kind": "matrix", "total": "50 Mbps", "horizon_s": 1.0
                },
            },
            "grid": {"solver": ["incremental", "full"], "seed": [1, 2]},
            "runtime": dict(
                {"retries": 2, "backoff_s": 0.01, "timeout_s": 120}, **runtime
            ),
        }
        path = str(tmp_path / "sweep.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        return path

    def test_sweep_runs_and_reports(self, tmp_path, capsys):
        spec = self._spec(tmp_path)
        out = str(tmp_path / "out")
        assert main(["sweep", spec, "--out", out, "--workers", "2"]) == 0
        printed = capsys.readouterr().out
        assert "4/4 jobs completed" in printed
        with open(tmp_path / "out" / "report.json") as handle:
            report = json.load(handle)
        assert report["summary"]["completed"] == 4

    def test_sweep_with_injected_crash_retries(self, tmp_path, capsys):
        spec = self._spec(tmp_path, fault={"job": 0, "crashes": 1})
        out = str(tmp_path / "out")
        assert main(["sweep", spec, "--out", out, "--workers", "2"]) == 0
        printed = capsys.readouterr().out
        assert "crash" in printed and "retrying" in printed
        with open(tmp_path / "out" / "report.json") as handle:
            report = json.load(handle)
        assert report["execution"]["retried"] == [0]
        assert report["summary"]["failed"] == []

    def test_sweep_failure_exit_code(self, tmp_path, capsys):
        spec = self._spec(tmp_path, fault={"job": 0, "crashes": 99}, retries=1)
        assert main(
            ["sweep", spec, "--out", str(tmp_path / "out"), "--quiet"]
        ) == 2
        assert "failed jobs: [0]" in capsys.readouterr().err

    def test_resume_command(self, tmp_path, capsys):
        spec = self._spec(tmp_path)
        out = str(tmp_path / "out")
        assert main(["sweep", spec, "--out", out, "--quiet"]) == 0
        assert main(["resume", out, "--quiet"]) == 0
        assert "4/4 jobs completed" in capsys.readouterr().out

    def test_resume_missing_dir(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err
