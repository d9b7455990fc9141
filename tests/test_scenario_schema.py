"""Scenario schema versioning: v0 migration, validation, Scenario API.

The api_redesign contract for documents: ``schema_version: 1`` nests
runtime knobs into sections mirroring the config dataclasses; legacy
v0 documents (flat ``hybrid_*``/``wire_*`` top-level keys plus a
``runtime`` section) migrate losslessly with warn-once deprecations;
validation reports dotted paths.  The hypothesis round-trip pins the
lossless part over the whole migratable key space.
"""

import dataclasses
import json
import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SECTION_TYPES
from repro.errors import ExperimentError
from repro.runtime.schema import (
    SCHEMA_VERSION,
    V0_RUNTIME_KEYS,
    V0_TOP_KEYS,
    Scenario,
    ensure_v1,
    migrate_scenario,
    reset_scenario_warnings,
    scenario_version,
    validate_scenario,
)


@pytest.fixture(autouse=True)
def _fresh_warnings():
    reset_scenario_warnings()
    yield
    reset_scenario_warnings()


BASE = {
    "engine": "flow",
    "until": 2.0,
    "topology": {"kind": "star", "hosts": 4},
    "policies": {"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
    "traffic": {"kind": "matrix", "model": "uniform", "total": "50 Mbps"},
}


def v0_doc(**extra) -> dict:
    doc = json.loads(json.dumps(BASE))
    doc.update(extra)
    return doc


# ----------------------------------------------------------------------
# Migration
# ----------------------------------------------------------------------
def test_v0_top_keys_move_into_sections():
    doc, moves = migrate_scenario(
        v0_doc(hybrid_select="top:2", monitor_interval_s=1.0)
    )
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["hybrid"]["select"] == "top:2"
    assert doc["telemetry"]["monitor_interval_s"] == 1.0
    assert "hybrid_select" not in doc
    assert moves == [
        ("hybrid_select", "hybrid", "select"),
        ("monitor_interval_s", "telemetry", "monitor_interval_s"),
    ]


def test_v0_runtime_section_moves_and_dissolves():
    doc, _moves = migrate_scenario(
        v0_doc(
            runtime={
                "trace_path": "run.jsonl",
                "checkpoint_path": "run.ckpt",
                "checkpoint_interval_s": 1.0,
                "wire_sync_quantum_s": 0.1,
            }
        )
    )
    assert "runtime" not in doc
    assert doc["telemetry"]["trace_path"] == "run.jsonl"
    assert doc["checkpoint"] == {"path": "run.ckpt", "interval_s": 1.0}
    assert doc["wire"]["sync_quantum_s"] == 0.1


def test_unknown_runtime_key_errors():
    with pytest.raises(ExperimentError, match="runtime"):
        migrate_scenario(v0_doc(runtime={"warp_factor": 9}))


def test_explicit_v1_values_win_over_flat_leftovers():
    doc, _ = migrate_scenario(
        v0_doc(hybrid={"select": "all"}, hybrid_select="none")
    )
    assert doc["hybrid"]["select"] == "all"


def test_migration_does_not_mutate_input():
    original = v0_doc(monitor_interval_s=1.0)
    snapshot = json.loads(json.dumps(original))
    migrate_scenario(original)
    assert original == snapshot


def test_ensure_v1_idempotent_and_warns_once():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = ensure_v1(v0_doc(hybrid_select="all"))
        again = ensure_v1(first)
    assert again == first
    dep = [w for w in caught if w.category is DeprecationWarning]
    assert sum("hybrid_select" in str(w.message) for w in dep) == 1


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_validate_reports_dotted_paths():
    bad = v0_doc()
    bad["schema_version"] = 1
    bad["telemetry"] = {"monitor_interval_s": "fast"}
    with pytest.raises(ExperimentError, match="telemetry.monitor_interval_s"):
        validate_scenario(bad)


def test_validate_rejects_unknown_section_key():
    bad = v0_doc()
    bad["schema_version"] = 1
    bad["wire"] = {"listne": "127.0.0.1:0"}
    with pytest.raises(ExperimentError, match="wire"):
        validate_scenario(bad)


def test_validate_rejects_unknown_top_level_key():
    bad = v0_doc(schema_version=1, bogus_key=1)
    with pytest.raises(ExperimentError, match="^bogus_key: unknown key$"):
        validate_scenario(bad)
    # "_"-prefixed keys are comments (the shipped examples carry one).
    validate_scenario(v0_doc(schema_version=1, _comment=["why"], _note="x"))


def test_every_shipped_scenario_validates():
    from repro.runtime.schema import load_scenario
    from repro.runtime.sweep import SweepSpec, expand_jobs

    directory = os.path.join(
        os.path.dirname(__file__), "..", "examples", "scenarios"
    )
    checked = 0
    for name in sorted(os.listdir(directory)) + [
        os.path.join("regressions", name)
        for name in sorted(os.listdir(os.path.join(directory, "regressions")))
    ]:
        path = os.path.join(directory, name)
        if os.path.basename(name) == "GOLDEN_DIGESTS.json" or os.path.isdir(path):
            continue
        with open(path) as handle:
            is_sweep = "grid" in json.load(handle)
        if is_sweep:
            assert expand_jobs(SweepSpec.from_file(path))  # validates each job
        else:
            validate_scenario(load_scenario(path))
        checked += 1
    assert checked >= 10


def test_validate_rejects_future_schema_version():
    bad = v0_doc()
    bad["schema_version"] = 99
    with pytest.raises(ExperimentError, match="schema_version"):
        validate_scenario(bad)


def test_bad_shards_values_rejected():
    """The sharded runtime is gone, so every ``"shards"`` value is bad:
    a document written for it is refused by name, never run unsharded."""
    for bad in (0, True, "four", 2, {"count": 2, "quantum_s": 0.5}):
        with pytest.raises(ExperimentError, match="^shards: unknown key$"):
            validate_scenario(v0_doc(schema_version=1, shards=bad))


def test_implementation_knobs_are_unknown_keys():
    """The solver, route cache and event-heap compaction pick how a run
    is computed, not what is simulated; a document naming them gets the
    same error as any misspelt key (``kernel.queue`` went the same way
    before them)."""
    for key, value in (
        ("solver", "full"),
        ("route_cache", False),
        ("kernel", {"compaction_threshold": 0.5}),
    ):
        with pytest.raises(ExperimentError, match=f"^{key}: unknown key$"):
            validate_scenario(v0_doc(schema_version=1, **{key: value}))


def test_profile_is_an_unknown_key():
    """Trace spans are the one record of where a run's wall time went:
    a document asking for the removed per-phase profiler is refused in
    either schema version, never run without it."""
    with pytest.raises(ExperimentError, match="^telemetry.profile: unknown key$"):
        validate_scenario(v0_doc(schema_version=1, telemetry={"profile": True}))
    with pytest.raises(ExperimentError, match=r"^runtime: unknown key\(s\): profile$"):
        validate_scenario(v0_doc(runtime={"profile": True}))


@pytest.mark.parametrize("attr, cls", sorted(SECTION_TYPES.items()))
def test_section_keys_are_the_dataclass_fields(attr, cls):
    from repro.runtime.scenario import build_config

    doc = v0_doc(schema_version=1, **{attr: dataclasses.asdict(cls())})
    assert getattr(build_config(doc), attr) == cls()
    doc[attr] = {"nope": 1}
    with pytest.raises(ExperimentError, match=rf"{attr}\.nope"):
        validate_scenario(doc)


def test_top_level_config_fields_reach_the_config():
    from repro.runtime.scenario import build_config

    doc = v0_doc(schema_version=1, control_latency_s=0.002, table_size=64)
    config = build_config(doc)
    assert config.control_latency_s == 0.002
    assert config.table_size == 64
    doc["control_latency_s"] = "slow"
    with pytest.raises(ExperimentError, match="control_latency_s"):
        validate_scenario(doc)


# ----------------------------------------------------------------------
# Lossless round-trip over the migratable key space (property test)
# ----------------------------------------------------------------------
_V0_VALUE_STRATEGIES = {
    "hybrid_select": st.sampled_from(["none", "all", "top:2", "top:5"]),
    "hybrid_sync_interval_s": st.floats(0.01, 1.0, allow_nan=False),
    "wire_client": st.sampled_from(["learning", "static", None]),
    "monitor_interval_s": st.floats(0.1, 10.0, allow_nan=False),
    "link_sample_interval_s": st.floats(0.1, 10.0, allow_nan=False),
}
_RUNTIME_VALUE_STRATEGIES = {
    "monitor_mode": st.sampled_from(["poll", "push"]),
    "monitor_push_min_delta_bytes": st.floats(0, 1e6, allow_nan=False),
    "trace_path": st.sampled_from(["a.jsonl", "b.jsonl"]),
    "checkpoint_path": st.sampled_from(["a.ckpt", "b.ckpt"]),
    "checkpoint_interval_s": st.floats(0.1, 10.0, allow_nan=False),
    "wire_listen": st.sampled_from(["127.0.0.1:0", "0.0.0.0:6653"]),
    "wire_sync_quantum_s": st.floats(0.01, 1.0, allow_nan=False),
    "wire_latency_budget_s": st.floats(0.1, 10.0, allow_nan=False),
    "wire_dilation": st.floats(0.0, 2.0, allow_nan=False),
}


@settings(max_examples=60, deadline=None)
@given(
    top=st.dictionaries(
        st.sampled_from(sorted(_V0_VALUE_STRATEGIES)), st.none(), max_size=5
    ).flatmap(
        lambda keys: st.fixed_dictionaries(
            {k: _V0_VALUE_STRATEGIES[k] for k in keys}
        )
    ),
    runtime=st.dictionaries(
        st.sampled_from(sorted(_RUNTIME_VALUE_STRATEGIES)), st.none(), max_size=6
    ).flatmap(
        lambda keys: st.fixed_dictionaries(
            {k: _RUNTIME_VALUE_STRATEGIES[k] for k in keys}
        )
    ),
)
def test_migration_round_trip_lossless(top, runtime):
    """Every legacy spelling lands on its documented nested field with
    the value unchanged, the result validates, and re-migration is a
    no-op."""
    reset_scenario_warnings()
    doc = v0_doc(**top)
    if "checkpoint_interval_s" in runtime:
        # Validation is the config's own: an interval needs a path.
        runtime = {"checkpoint_path": "a.ckpt", **runtime}
    if runtime:
        doc["runtime"] = dict(runtime)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        migrated, _moves = migrate_scenario(doc)
        validate_scenario(migrated)
        again, _ = migrate_scenario(migrated)
    assert again == migrated
    assert scenario_version(migrated) == SCHEMA_VERSION
    for old, value in top.items():
        section, field = V0_TOP_KEYS[old]
        assert migrated[section][field] == value
    for old, value in runtime.items():
        section, field = V0_RUNTIME_KEYS[old]
        assert migrated[section][field] == value


# ----------------------------------------------------------------------
# The Scenario convenience class
# ----------------------------------------------------------------------
def test_scenario_class_runs_v0_documents(tmp_path):
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(v0_doc(monitor_interval_s=1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        scenario = Scenario.from_file(str(path))
    config = scenario.config()
    assert config.telemetry.monitor_interval_s == 1.0
    _horse, result, count = scenario.run()
    assert count > 0 and result.flows


def test_scenario_class_validates_on_load():
    with pytest.raises(ExperimentError, match="engine"):
        Scenario({**BASE, "engine": "quantum"})


# ----------------------------------------------------------------------
# The faults section
# ----------------------------------------------------------------------
FLAP = {"at": 0.5, "link": ["h1", "s1"], "up": False}


@pytest.mark.parametrize("fault, message", [
    ({"at": 1.0, "link": ["s1", "ghost"], "up": False},
     r"faults\[1\]\.link: no node named 'ghost'"),
    ({"at": 1.0, "link": ["h1", "h2"], "up": False},
     r"faults\[1\]\.link: no link between h1 and h2"),
    ({"at": -0.5, "link": ["h1", "s1"], "up": True},
     r"faults\[1\]\.at: must be finite and >= 0"),
    ({"at": float("nan"), "link": ["h1", "s1"], "up": True},
     r"faults\[1\]\.at: must be finite and >= 0"),
    ({"at": float("inf"), "link": ["h1", "s1"], "up": True},
     r"faults\[1\]\.at: must be finite and >= 0"),
    ({"at": True, "link": ["h1", "s1"], "up": True},
     r"faults\[1\]\.at: expected int or float, got a boolean"),
    ({"at": 1.0, "link": ["h1", "s1"], "up": 1},
     r"faults\[1\]\.up: expected bool, got int"),
    ({"at": 1.0, "link": ["h1", "s1"], "up": "true"},
     r"faults\[1\]\.up: expected bool, got str"),
    ({"at": 1.0, "link": ["h1", "s1"], "up": True, "when": 2.0},
     r"faults\[1\]\.when: unknown key"),
    ({"at": 1.0, "link": ["h1", "s1"]}, r"faults\[1\]\.up: required"),
    ({"at": 1.0, "link": ["h1"], "up": True},
     r"faults\[1\]\.link: expected two node names"),
    ("h1-s1", r"faults\[1\]: expected an object, got str"),
])
def test_a_bad_fault_is_named_by_its_index(fault, message, tmp_path, capsys):
    """Structure is checked with the rest of the document, the link
    once the topology is built; either way the error names the entry,
    and ``repro run`` exits 1 with it."""
    from repro.cli import main
    from repro.runtime.scenario import run_scenario

    doc = v0_doc(schema_version=1, faults=[FLAP, fault])
    with pytest.raises(ExperimentError, match=f"^{message}"):
        run_scenario(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message.replace(chr(92), '')}")


def test_faults_must_be_a_list():
    with pytest.raises(ExperimentError, match="^faults: expected list, got dict$"):
        validate_scenario(v0_doc(schema_version=1, faults=FLAP))


def test_a_fault_after_until_is_pending_and_one_at_until_fires():
    """A fault is timed like a flow arrival: one at ``until`` fires at
    that last instant, one after it never fires in the run and stays
    pending for a run resumed past it."""
    from repro.runtime.scenario import run_scenario

    horse, _, _ = run_scenario(v0_doc(schema_version=1, faults=[
        {"at": 2.0, "link": ["h1", "s1"], "up": False},
        {"at": 2.5, "link": ["h2", "s1"], "up": False},
    ]))
    link = horse.topology.link_between
    assert horse.sim.now == 2.0
    assert not link("h1", "s1").up and link("h2", "s1").up
    horse.run(until=3.0)
    assert not link("h2", "s1").up


def test_inline_trace_flows_run_like_a_trace_file(tmp_path):
    """``"flows"`` takes the records a trace file holds, and gives the
    run that file gives; a trace names one source, and a record it
    cannot read is named by its index."""
    from repro.runtime.scenario import run_scenario
    from repro.stats.export import run_digest
    from repro.traffic.trace_io import flow_to_record, load_trace, save_trace

    _, result, count = run_scenario(v0_doc(schema_version=1))
    path = str(tmp_path / "trace.jsonl")
    save_trace(result.flows, path)
    records = [flow_to_record(flow) for flow in load_trace(path)]
    by_file = run_scenario(v0_doc(schema_version=1,
                                  traffic={"kind": "trace", "file": path}))
    inline = run_scenario(v0_doc(schema_version=1,
                                 traffic={"kind": "trace", "flows": records}))
    assert count == by_file[2] == inline[2] > 0
    assert run_digest(inline[1]) == run_digest(by_file[1])
    for traffic in ({"kind": "trace"},
                    {"kind": "trace", "file": path, "flows": records}):
        with pytest.raises(ExperimentError,
                           match="^traffic: a trace takes exactly one of"):
            run_scenario(v0_doc(schema_version=1, traffic=traffic))
    broken = [records[0], {"src": "h1"}]
    with pytest.raises(ExperimentError,
                       match=r"^traffic\.flows\[1\]: not a trace record"):
        run_scenario(v0_doc(schema_version=1,
                            traffic={"kind": "trace", "flows": broken}))
