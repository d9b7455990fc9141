"""Data-plane static analyzer tests.

Covers the full taxonomy: loops (parallel links), blackholes (mid-path
miss, dangling port, down link), shadowed/redundant/conflicting rules,
intent verification (reachability + path deviation), clean fixtures
(linear, IXP, ECMP leaf-spine), the programmatic hooks
(``Horse.analyze`` / ``Controller.verify``), and the ``repro analyze``
CLI subcommand.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisReport,
    DataPlaneAnalyzer,
    Finding,
    KIND_BLACKHOLE,
    KIND_LOOP,
    KIND_PATH_DEVIATION,
    KIND_REACHABILITY,
    KIND_REDUNDANT_RULE,
    KIND_RULE_CONFLICT,
    KIND_SHADOWED_RULE,
    SEVERITY_ERROR,
    analyze_network,
    derive_traffic_classes,
    find_table_findings,
    walk_pipeline,
)
from repro.analysis.rules import detect_rule_conflicts
from repro.cli import main
from repro.control.policy.spec import BlackholingSpec, SourceRoutingSpec
from repro.control.policy.validation import validate_composition
from repro.core import Horse
from repro.errors import VerificationError
from repro.ixp import build_ixp
from repro.net import IPv4Address
from repro.net.generators import full_mesh, leaf_spine, linear
from repro.net.topology import Topology
from repro.openflow import (
    ApplyActions,
    Bucket,
    Drop,
    GroupAction,
    GroupType,
    HeaderFields,
    Match,
    Output,
    attach_pipeline,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


def _fwd(port: int):
    return (ApplyActions((Output(port),)),)


# ----------------------------------------------------------------------
# Loops
# ----------------------------------------------------------------------
class TestLoopDetection:
    @pytest.fixture
    def parallel_pair(self):
        """s1 = s2 over two parallel links, one host on each switch.

        Port map: on each switch, port 1 and 2 are the parallel links,
        port 3 the host.
        """
        topo = Topology(name="parallel-pair")
        s1 = topo.add_switch("s1")
        s2 = topo.add_switch("s2")
        topo.add_link(s1, s2)
        topo.add_link(s1, s2)
        topo.add_link(topo.add_host("h1"), s1)
        topo.add_link(topo.add_host("h2"), s2)
        for switch in (s1, s2):
            attach_pipeline(switch)
        return topo

    def test_mutual_forwarding_over_parallel_links_loops(self, parallel_pair):
        dst = IPv4Address("10.9.9.9")
        # s1 sends the class out link 2; s2 sends it back out link 1.
        # With two distinct links the in-port suppression never kicks
        # in, so the packet circulates forever.
        parallel_pair.switch("s1").pipeline.install(
            Match(ip_dst=dst), _fwd(2), priority=10
        )
        parallel_pair.switch("s2").pipeline.install(
            Match(ip_dst=dst), _fwd(1), priority=10
        )
        report = analyze_network(parallel_pair)
        loops = report.by_kind(KIND_LOOP)
        assert loops, report.summary_text()
        assert all(f.severity == SEVERITY_ERROR for f in loops)
        assert any("s1" in f.path and "s2" in f.path for f in loops)
        assert report.exit_code() == 1

    def test_single_link_hairpin_is_not_a_loop(self):
        # Over one shared link, OpenFlow suppresses output to the
        # in-port, so "s1 -> s2 -> s1" cannot physically happen.
        topo = linear(2, hosts_per_switch=1)
        for switch in topo.switches:
            attach_pipeline(switch)
        dst = IPv4Address("10.9.9.9")
        out1 = topo.egress_port("s1", "s2").number
        out2 = topo.egress_port("s2", "s1").number
        topo.switch("s1").pipeline.install(
            Match(ip_dst=dst), _fwd(out1), priority=10
        )
        topo.switch("s2").pipeline.install(
            Match(ip_dst=dst), _fwd(out2), priority=10
        )
        report = analyze_network(topo)
        assert not report.by_kind(KIND_LOOP)


# ----------------------------------------------------------------------
# Blackholes
# ----------------------------------------------------------------------
class TestBlackholeDetection:
    @pytest.fixture
    def chain3(self):
        topo = linear(3, hosts_per_switch=1)
        for switch in topo.switches:
            attach_pipeline(switch)
        return topo

    def test_mid_path_table_miss(self, chain3):
        """Rules carry the class to s3, where nothing matches: stuck."""
        dst = chain3.host("h3").ip
        for src, nxt in (("s1", "s2"), ("s2", "s3")):
            out = chain3.egress_port(src, nxt).number
            chain3.switch(src).pipeline.install(
                Match(ip_dst=dst), _fwd(out), priority=10
            )
        report = analyze_network(chain3)
        holes = report.by_kind(KIND_BLACKHOLE)
        assert holes, report.summary_text()
        assert any("miss" in f.message for f in holes)
        assert any(f.switch == "s3" for f in holes)

    def test_dangling_port(self, chain3):
        """A rule outputs to a port with no link behind it: stuck."""
        dst = IPv4Address("10.77.0.1")
        s1 = chain3.switch("s1")
        s1.add_port(9)  # never connected
        s1.pipeline.install(Match(ip_dst=dst), _fwd(9), priority=10)
        report = analyze_network(chain3)
        holes = report.by_kind(KIND_BLACKHOLE)
        assert holes
        assert any("no attached link" in f.message for f in holes)

    def test_down_link(self, chain3):
        """Rules installed before a failure go stale: stuck at the cut."""
        dst = chain3.host("h3").ip
        for src, nxt in (("s1", "s2"), ("s2", "s3")):
            out = chain3.egress_port(src, nxt).number
            chain3.switch(src).pipeline.install(
                Match(ip_dst=dst), _fwd(out), priority=10
            )
        out3 = chain3.egress_port("s3", "h3").number
        chain3.switch("s3").pipeline.install(
            Match(ip_dst=dst), _fwd(out3), priority=10
        )
        assert analyze_network(chain3).ok  # healthy before the failure
        chain3.fail_link("s2", "s3")
        report = analyze_network(chain3)
        holes = report.by_kind(KIND_BLACKHOLE)
        assert holes
        assert any("down" in f.message for f in holes)

    def test_explicit_drop_is_not_a_blackhole(self, chain3):
        """Intentional drops (blackholing policy) are not findings."""
        dst = chain3.host("h2").ip
        for switch in chain3.switches:
            switch.pipeline.install(
                Match(ip_dst=dst), (ApplyActions((Drop(),)),), priority=400
            )
        report = analyze_network(chain3)
        assert not report.by_kind(KIND_BLACKHOLE), report.summary_text()


# ----------------------------------------------------------------------
# Table anomalies: shadowed / redundant / conflicting rules
# ----------------------------------------------------------------------
class TestTableAnomalies:
    @pytest.fixture
    def pipeline(self):
        topo = linear(1, hosts_per_switch=1)
        return attach_pipeline(topo.switch("s1"))

    def test_cross_priority_shadowing(self, pipeline):
        dst = IPv4Address("10.0.0.2")
        pipeline.install(Match(ip_dst=dst), _fwd(1), priority=20)
        pipeline.install(
            Match(ip_dst=dst, tp_dst=80),
            (ApplyActions((Drop(),)),),
            priority=10,
        )
        findings = find_table_findings(pipeline)
        shadows = [f for f in findings if f.kind == KIND_SHADOWED_RULE]
        assert len(shadows) == 1
        assert "priority-20" in shadows[0].message
        assert "priority-10" in shadows[0].message

    def test_redundant_rule(self, pipeline):
        dst = IPv4Address("10.0.0.2")
        pipeline.install(Match(ip_dst=dst), _fwd(1), priority=20)
        pipeline.install(Match(ip_dst=dst, tp_dst=80), _fwd(1), priority=10)
        findings = find_table_findings(pipeline)
        assert [f.kind for f in findings] == [KIND_REDUNDANT_RULE]

    def test_same_priority_conflict(self, pipeline):
        pipeline.install(Match(tp_dst=80), _fwd(1), priority=10)
        pipeline.install(
            Match(tp_src=1000), (ApplyActions((Drop(),)),), priority=10
        )
        findings = find_table_findings(pipeline)
        assert [f.kind for f in findings] == [KIND_RULE_CONFLICT]

    def test_disjoint_rules_are_clean(self, pipeline):
        pipeline.install(
            Match(ip_dst=IPv4Address("10.0.0.1")), _fwd(1), priority=10
        )
        pipeline.install(
            Match(ip_dst=IPv4Address("10.0.0.2")), _fwd(2), priority=10
        )
        assert find_table_findings(pipeline) == []

    def test_detect_rule_conflicts_reports_shadow_kind(self, pipeline):
        dst = IPv4Address("10.0.0.2")
        pipeline.install(Match(ip_dst=dst), _fwd(1), priority=20)
        pipeline.install(
            Match(ip_dst=dst, tp_dst=80),
            (ApplyActions((Drop(),)),),
            priority=10,
        )
        conflicts = detect_rule_conflicts(pipeline)
        assert len(conflicts) == 1
        assert conflicts[0]["kind"] == "shadow"
        assert conflicts[0]["priority"] == 20
        assert conflicts[0]["shadowed_priority"] == 10


# ----------------------------------------------------------------------
# Walker: group fan-out
# ----------------------------------------------------------------------
class TestWalker:
    def test_select_group_forks_per_bucket(self):
        topo = linear(1, hosts_per_switch=1)
        pipeline = attach_pipeline(topo.switch("s1"))
        pipeline.groups.add(
            1,
            GroupType.SELECT,
            [Bucket((Output(5),), weight=1), Bucket((Output(6),), weight=1)],
        )
        pipeline.install(
            Match(), (ApplyActions((GroupAction(1),)),), priority=10
        )
        states = walk_pipeline(
            pipeline, HeaderFields(ip_dst=IPv4Address("10.0.0.9")), in_port=1
        )
        outputs = sorted(port for s in states for port, _ in s.outputs)
        assert outputs == [5, 6]


# ----------------------------------------------------------------------
# Clean fixtures: a healthy fabric yields zero findings
# ----------------------------------------------------------------------
class TestCleanFixtures:
    def test_linear_shortest_path_is_clean(self):
        horse = Horse(
            linear(2, hosts_per_switch=1),
            policies={"forwarding": "shortest-path"},
        )
        report = horse.analyze()
        assert report.ok
        assert report.findings == []
        assert report.classes_analyzed == 2

    def test_ixp_fabric_is_clean(self):
        fabric = build_ixp(8, seed=3)
        horse = Horse(
            fabric.topology, policies={"forwarding": "shortest-path"}
        )
        report = horse.analyze()
        assert report.ok, report.summary_text()
        assert report.classes_analyzed >= 8

    def test_all_ports_ingress_is_clean_too(self):
        """Transit-port injection must not misread the in-port output
        suppression (a hairpin) as a blackhole."""
        horse = Horse(
            linear(2, hosts_per_switch=1),
            policies={"forwarding": "shortest-path"},
        )
        horse.start_control_plane()
        report = analyze_network(horse.topology, ingress="all")
        assert report.ok, report.summary_text()
        assert report.injections == 6  # 2 edge + 1 transit port per class

    def test_ecmp_leaf_spine_is_clean(self):
        """ECMP SELECT groups fan the walk out across spines."""
        horse = Horse(
            leaf_spine(2, 2, hosts_per_leaf=2),
            policies={"load_balancing": {"mode": "ecmp"}},
        )
        report = horse.analyze()
        assert report.ok, report.summary_text()


# ----------------------------------------------------------------------
# Intent verification
# ----------------------------------------------------------------------
class TestIntentVerification:
    def test_stale_source_route_is_a_reachability_error(self):
        topo = linear(3, hosts_per_switch=1)
        horse = Horse(
            topo,
            policies={
                "forwarding": "learning",
                "source_routing": [
                    {
                        "src": "h1",
                        "dst": "h3",
                        "path": ["h1", "s1", "s2", "s3", "h3"],
                    }
                ],
            },
        )
        horse.start_control_plane()
        assert horse.analyze().ok
        topo.fail_link("s2", "s3")
        report = horse.analyze()
        kinds = {f.kind for f in report.findings}
        assert KIND_REACHABILITY in kinds
        assert KIND_BLACKHOLE in kinds
        assert report.exit_code() == 1

    def test_analyze_can_raise(self):
        topo = linear(3, hosts_per_switch=1)
        horse = Horse(
            topo,
            policies={
                "forwarding": "learning",
                "source_routing": [
                    {
                        "src": "h1",
                        "dst": "h3",
                        "path": ["h1", "s1", "s2", "s3", "h3"],
                    }
                ],
            },
        )
        horse.start_control_plane()
        topo.fail_link("s2", "s3")
        with pytest.raises(VerificationError):
            horse.analyze(raise_on_error=True)

    def test_path_deviation_warning(self):
        """Traffic delivered, but not via the declared path."""
        topo = full_mesh(3, hosts_per_switch=1)
        horse = Horse(topo, policies={"forwarding": "shortest-path"})
        horse.start_control_plane()
        detour = SourceRoutingSpec(
            src="h1", dst="h3", path=("h1", "s1", "s2", "s3", "h3")
        )
        report = analyze_network(topo, specs=[detour])
        deviations = report.by_kind(KIND_PATH_DEVIATION)
        assert len(deviations) == 1
        assert deviations[0].severity == "warning"
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_unresolvable_blackhole_target_warns(self):
        conflicts = validate_composition(
            [BlackholingSpec(target="no-such-host")], topology=None
        )
        assert any(
            c.severity == "warning" and "no-such-host" in c.message
            for c in conflicts
        )


# ----------------------------------------------------------------------
# Report plumbing
# ----------------------------------------------------------------------
class TestReport:
    def test_round_trip_and_ordering(self):
        report = AnalysisReport()
        report.extend(
            [
                Finding(kind=KIND_SHADOWED_RULE, severity="warning", message="w"),
                Finding(kind=KIND_LOOP, severity="error", message="e"),
            ]
        )
        assert [f.severity for f in report.sorted_findings()] == [
            "error",
            "warning",
        ]
        doc = report.to_dict()
        assert doc["errors"] == 1 and doc["warnings"] == 1
        assert json.dumps(doc)  # JSON-serializable

    def test_sarif_golden_shape(self):
        report = AnalysisReport()
        report.extend(
            [Finding(kind=KIND_LOOP, severity="error", message="e", switch="s1")]
        )
        sarif = report.to_sarif()
        assert sarif["version"] == "2.1.0"
        (run,) = sarif["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-analyze"
        assert [rule["id"] for rule in driver["rules"]] == ["DP-LOOP"]
        (result,) = run["results"]
        assert result["ruleId"] == "DP-LOOP"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "s1"
        assert result["partialFingerprints"]["reproFingerprint/v1"] == (
            report.findings[0].fingerprint
        )

    def test_traffic_class_derivation_skips_wildcard(self):
        topo = linear(2, hosts_per_switch=1)
        pipeline = attach_pipeline(topo.switch("s1"))
        pipeline.install(Match(), _fwd(1), priority=0)  # table-miss rule
        pipeline.install(
            Match(ip_dst=IPv4Address("10.0.0.2")), _fwd(1), priority=10
        )
        classes = derive_traffic_classes(topo)
        assert len(classes) == 1
        assert classes[0].headers.ip_dst == IPv4Address("10.0.0.2")

    def test_ingress_mode_validation(self):
        topo = linear(2, hosts_per_switch=1)
        with pytest.raises(ValueError):
            DataPlaneAnalyzer(topo, ingress="bogus")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestAnalyzeCli:
    def test_clean_scenario_exits_zero(self, capsys):
        rc = main(["analyze", str(SCENARIOS / "quickstart.json")])
        assert rc == 0
        assert "verified clean" in capsys.readouterr().out

    def test_miscomposed_scenario_exits_zero_without_strict(self, capsys):
        # Findings gate the exit status only under --strict; the default
        # exits 0 and leaves the gating to the report's reader.
        rc = main(
            [
                "analyze",
                str(SCENARIOS / "miscomposed.json"),
                "--fail-link",
                "s2",
                "s3",
            ]
        )
        assert rc == 0
        assert "blackhole" in capsys.readouterr().out

    def test_miscomposed_scenario_exits_nonzero(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        rc = main(
            [
                "analyze",
                str(SCENARIOS / "miscomposed.json"),
                "--fail-link",
                "s2",
                "s3",
                "--json",
                out,
                "--strict",
            ]
        )
        assert rc == 1
        text = capsys.readouterr().out
        assert "blackhole" in text
        assert "reachability" in text
        with open(out) as handle:
            doc = json.load(handle)
        assert doc["errors"] >= 2
        assert {f["kind"] for f in doc["findings"]} >= {
            "blackhole",
            "reachability",
        }
