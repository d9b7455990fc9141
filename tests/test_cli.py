"""CLI tests: the subcommands end to end, and the override table that
every document-editing flag of run / serve / trace record is a row of."""

import json
import os

import pytest

from repro.cli import OVERRIDES, build_parser, main, override_edits
from repro.runtime.scenario import run_scenario
from repro.runtime.schema import (
    _DOCUMENT_KEYS,
    _SECTIONS,
    _TOP_TYPES,
    build_config,
    load_scenario,
    reset_scenario_warnings,
    set_dotted,
)
from repro.stats.export import run_digest


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

    def test_restore_at_the_run_horizon_refuses_to_do_nothing(
        self, tmp_path, capsys
    ):
        """A checkpoint taken where its run ended has nothing left to run
        without --until: the restore says so and exits 1, never reprinting
        the old summary as if it had run."""
        scenario = self._scenario(tmp_path)
        ckpt = str(tmp_path / "state.ckpt")
        assert main(
            ["run", scenario, "--until", "1.0", "--checkpoint", ckpt]
        ) == 0
        capsys.readouterr()
        assert main(["run", "--restore", ckpt]) == 1
        captured = capsys.readouterr()
        assert "--until T" in captured.err
        assert "run summary" not in captured.out
        assert main(["run", "--restore", ckpt, "--until", "1.0"]) == 1

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
            "grid": {"topology.hosts": [4, 5], "seed": [1, 2]},
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


# ----------------------------------------------------------------------
# Overrides: every document-editing flag is a row of one table
# ----------------------------------------------------------------------
QUICKSTART = os.path.join(
    os.path.dirname(__file__), "..", "examples", "scenarios", "quickstart.json"
)
ROWS = [
    pytest.param(command, row, id=f"{command} {row.flag}")
    for command, rows in OVERRIDES.items()
    for row in rows
]
#: A value the validator accepts, for the rows whose type does not pick one.
SAMPLE_TEXT = {
    "hybrid.select": "top:2",
    "wire.listen": "127.0.0.1:0",
    "checkpoint.path": "run.ckpt",
    "telemetry.trace_path": "run.trace.jsonl",
}


def _sample(row):
    """(command-line words after the flag, the value the document gets)."""
    if isinstance(row.type, tuple):
        return [row.type[-1]], row.type[-1]
    if row.type is str:
        return [SAMPLE_TEXT[row.path]], SAMPLE_TEXT[row.path]
    value = {int: 2, float: 0.25}[row.type]
    return [str(value)], value


def _parse(command, *words):
    required = [
        word
        for row in OVERRIDES[command]
        if row.required and row.flag not in words
        for word in (row.flag, SAMPLE_TEXT[row.path])
    ]
    return build_parser().parse_args(
        [*command.split(), QUICKSTART, *required, *words]
    )


class TestOverrideTable:
    @pytest.mark.parametrize("command, row", ROWS)
    def test_flag_is_exactly_the_rows_edits(self, command, row):
        words, value = _sample(row)
        args = _parse(command, row.flag, *words)
        assert override_edits(args, (row,)) == [*row.implies, (row.path, value)]
        # Only this flag was given: no other row of the command edits.
        others = [r for r in OVERRIDES[command] if r != row and not r.required]
        assert override_edits(args, tuple(others)) == []

        document = load_scenario(QUICKSTART)
        if row.path == "checkpoint.interval_s":
            set_dotted(document, "checkpoint.path", "run.ckpt")  # its precondition
        for path, edit in override_edits(args, (row,)):
            set_dotted(document, path, edit)
        config = build_config(document)
        head, _, field = row.path.partition(".")
        if row.path == "until":
            assert document["until"] == value
        elif field:
            section = getattr(config, head)
            assert getattr(section, field) == value
        else:
            assert getattr(config, head) == value
        for path, implied in row.implies:
            assert getattr(config, path) == implied

    @pytest.mark.parametrize("command, row", ROWS)
    def test_path_resolves_in_the_schema(self, command, row):
        """A renamed config field cannot leave a dangling flag."""
        head, _, field = row.path.partition(".")
        if field:
            assert field in _SECTIONS[head]
        else:
            assert head in _TOP_TYPES or head in _DOCUMENT_KEYS
        for path, _value in row.implies:
            assert path in _TOP_TYPES

    def test_cli_surface_is_pinned(self):
        """The flags of the three scenario-running commands, as a literal
        list (what tools/api-surface.json is to the library)."""
        expected = {
            "run": {
                "--flows-csv", "--json", "--until", "--checkpoint",
                "--checkpoint-interval", "--restore", "--trace", "--metrics",
                "--hybrid-select", "--hybrid-sync-interval",
                "--check-digest", "--control",
                "--wire-client", "--wire-listen",
            },
            "serve": {"--listen", "--until", "--budget", "--dilation", "--json"},
            "trace record": {"--out", "--until"},
        }
        parser = build_parser()
        for command, flags in expected.items():
            sub = parser
            for word in command.split():
                choices = next(
                    a.choices for a in sub._actions if isinstance(a.choices, dict)
                )
                sub = choices[word]
            found = {
                opt for a in sub._actions for opt in a.option_strings
            } - {"-h", "--help"}
            assert found == flags, command

    @pytest.mark.parametrize(
        "words",
        [
            ["run", QUICKSTART, "--solver", "full"],
            ["run", QUICKSTART, "--kernel-compaction-threshold", "0.5"],
            ["run", QUICKSTART, "--shards", "2"],
            ["run", QUICKSTART, "--profile"],
            ["trace", "record", QUICKSTART, "--out", "t.jsonl", "--solver", "full"],
        ],
    )
    def test_implementation_flags_are_gone(self, words, capsys):
        """Flags that picked how a run is computed, not what is
        simulated (or, like ``--profile``, only timed it), are argparse
        errors like any unknown flag."""
        with pytest.raises(SystemExit) as exc:
            main(words)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_flag_and_hand_edit_are_the_same_run(self, capsys):
        document = load_scenario(QUICKSTART)
        document["engine"] = "hybrid"
        document["hybrid"] = {"select": "top:2"}
        document["until"] = 1.0
        _horse, result, _count = run_scenario(document)
        rc = main(
            ["run", QUICKSTART, "--hybrid-select", "top:2", "--until", "1",
             "--check-digest", run_digest(result)]
        )
        assert rc == 0, capsys.readouterr().err


class TestZeroIsAValue:
    """A zero on the command line reaches the validator (or the run) like
    a zero written in the file; it is never taken for "flag not given"."""

    @pytest.mark.parametrize(
        "words, message",
        [
            (["run", QUICKSTART, "--checkpoint", "x.ckpt",
              "--checkpoint-interval", "0"],
             "checkpoint.interval_s must be > 0"),
            (["run", QUICKSTART, "--hybrid-select", "all",
              "--hybrid-sync-interval", "0"],
             "hybrid.sync_interval_s must be > 0"),
            (["serve", QUICKSTART, "--budget", "0"],
             "wire.latency_budget_s must be > 0"),
        ],
    )
    def test_zero_is_validated(self, words, message, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(words) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_serve_until_zero_is_an_edit(self):
        args = _parse("serve", "--until", "0")
        assert override_edits(args, OVERRIDES["serve"]) == [("until", 0.0)]

    def test_trace_record_until_zero_stops_at_zero(self, tmp_path):
        from repro.telemetry import read_trace, summarize_trace

        trace = str(tmp_path / "t.jsonl")
        assert main(
            ["trace", "record", QUICKSTART, "--out", trace, "--until", "0"]
        ) == 0
        assert summarize_trace(read_trace(trace))["sim_time"]["max"] == 0


class TestRestoreRefusesDocumentFlags:
    @pytest.mark.parametrize(
        "row",
        [
            row
            for row in OVERRIDES["run"]
            if row.flag not in ("--until", "--trace")
        ],
        ids=lambda row: row.flag,
    )
    def test_refused_by_name(self, row, tmp_path, capsys):
        # Refused before the checkpoint is even opened.
        words, _value = _sample(row)
        rc = main(["run", "--restore", str(tmp_path / "no.ckpt"), row.flag, *words])
        assert rc == 1
        err = capsys.readouterr().err
        assert row.flag in err and "--restore" in err

    def test_trace_still_applies_to_the_restored_horse(self, tmp_path):
        from repro.telemetry import read_trace

        scenario = TestRunCommand()._scenario(tmp_path, until=5.0)
        ckpt = str(tmp_path / "state.ckpt")
        assert main(["run", scenario, "--until", "1.0", "--checkpoint", ckpt]) == 0
        trace = str(tmp_path / "rest.jsonl")
        assert main(["run", "--restore", ckpt, "--trace", trace, "--until", "5.0"]) == 0
        events = [r for r in read_trace(trace) if r["kind"] == "kernel.event"]
        assert events and all(r["t"] >= 1.0 and r["wall_dur_s"] >= 0.0 for r in events)


class TestShardedDocuments:
    """A document written for the removed sharded runtime is refused by
    name, never run unsharded as if the key were not there."""

    def _sharded(self, tmp_path):
        return TestRunCommand()._scenario(
            tmp_path, schema_version=1, shards=2,
            topology={"kind": "pods", "pods": 2, "hosts_per_pod": 2},
        )

    def test_trace_record_refuses_a_sharded_document(self, tmp_path, capsys):
        path = self._sharded(tmp_path)
        trace = str(tmp_path / "t.jsonl")
        assert main(["trace", "record", path, "--out", trace]) == 1
        assert "shards: unknown key" in capsys.readouterr().err
        assert not os.path.exists(trace)

    def test_serve_refuses_a_sharded_document(self, tmp_path, capsys):
        assert main(["serve", self._sharded(tmp_path)]) == 1
        assert "shards: unknown key" in capsys.readouterr().err

    def test_run_refuses_a_sharded_document(self, tmp_path, capsys):
        assert main(["run", self._sharded(tmp_path)]) == 1
        assert "shards: unknown key" in capsys.readouterr().err


class TestAnalyzeBuildsWhatRunBuilds:
    def _tables_seen(self, monkeypatch, path):
        import repro.analysis

        seen = []
        real = repro.analysis.analyze_network

        def spy(topology, **kwargs):
            seen.extend(len(s.pipeline.tables) for s in topology.switches)
            return real(topology, **kwargs)

        monkeypatch.setattr(repro.analysis, "analyze_network", spy)
        assert main(["analyze", path]) == 0
        return seen

    def test_pipeline_tables_reach_the_analyzed_network(self, tmp_path, monkeypatch):
        path = TestRunCommand()._scenario(
            tmp_path, schema_version=1, pipeline_tables=3
        )
        assert self._tables_seen(monkeypatch, path) == [3]

    def test_v0_document_is_migrated_with_its_warning(self, tmp_path, monkeypatch):
        reset_scenario_warnings()
        path = TestRunCommand()._scenario(tmp_path, monitor_interval_s=1.0)
        with pytest.warns(DeprecationWarning, match="monitor_interval_s"):
            assert self._tables_seen(monkeypatch, path) == [1]

    def test_invalid_document_is_an_error_not_an_analysis(self, tmp_path, capsys):
        path = TestRunCommand()._scenario(tmp_path, schema_version=1, bogus_key=1)
        assert main(["analyze", path]) == 1
        assert capsys.readouterr().err == "error: bogus_key: unknown key\n"

    def test_wire_control_has_nothing_to_analyze(self, capsys):
        wire_demo = os.path.join(os.path.dirname(QUICKSTART), "wire_demo.json")
        assert main(["analyze", wire_demo]) == 1
        assert "control='wire'" in capsys.readouterr().err
