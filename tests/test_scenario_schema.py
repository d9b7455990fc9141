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
    shard_section,
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
    doc, notes = migrate_scenario(
        v0_doc(hybrid_select="top:2", monitor_interval_s=1.0)
    )
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["hybrid"]["select"] == "top:2"
    assert doc["telemetry"]["monitor_interval_s"] == 1.0
    assert "hybrid_select" not in doc
    assert any("schema_version" in note for note in notes)


def test_v0_runtime_section_moves_and_dissolves():
    doc, _notes = migrate_scenario(
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
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if name == "GOLDEN_DIGESTS.json":
            continue
        with open(path) as handle:
            is_sweep = "grid" in json.load(handle)
        if is_sweep:
            assert expand_jobs(SweepSpec.from_file(path))  # validates each job
        else:
            validate_scenario(load_scenario(path))
        checked += 1
    assert checked >= 8


def test_validate_rejects_future_schema_version():
    bad = v0_doc()
    bad["schema_version"] = 99
    with pytest.raises(ExperimentError, match="schema_version"):
        validate_scenario(bad)


def test_shard_section_accepts_bare_int():
    doc = v0_doc()
    doc["schema_version"] = 1
    doc["shards"] = 4
    assert shard_section(doc) == {"count": 4}
    doc["shards"] = {"count": 2, "quantum_s": 0.5}
    assert shard_section(doc)["quantum_s"] == 0.5


def test_bad_shards_values_rejected():
    for bad in (0, True, "four", {"count": 0}, {"count": 2, "quantum_s": -1.0}):
        with pytest.raises(ExperimentError, match="shard"):
            validate_scenario(v0_doc(schema_version=1, shards=bad))


def test_kernel_section_validates_and_round_trips():
    doc = v0_doc()
    doc["schema_version"] = 1
    doc["kernel"] = {"compaction_threshold": 0.25, "min_compact_size": 16}
    validate_scenario(doc)
    from repro.runtime.scenario import build_config

    config = build_config(doc)
    assert config.kernel.compaction_threshold == 0.25
    assert config.kernel.min_compact_size == 16
    # null means "use the default" per the JSON convention...
    doc["kernel"] = {"compaction_threshold": None}
    validate_scenario(doc)
    # ...but KernelConfig treats an explicit None as "disable".
    assert build_config(doc).kernel.compaction_threshold is None
    doc["kernel"] = {"min_compact_size": None}
    assert build_config(doc).kernel.min_compact_size == 64


def test_kernel_section_rejects_bad_values():
    doc = v0_doc()
    doc["schema_version"] = 1
    # The pending-event set is the heap; the knob that chose it is gone.
    doc["kernel"] = {"queue": "heap"}
    with pytest.raises(ExperimentError, match="kernel.queue: unknown key"):
        validate_scenario(doc)
    doc["kernel"] = {"compaction_threshold": 2.0}
    with pytest.raises(ExperimentError, match="kernel.compaction_threshold"):
        validate_scenario(doc)
    doc["kernel"] = {"min_compact_size": "lots"}
    with pytest.raises(ExperimentError, match="kernel.min_compact_size"):
        validate_scenario(doc)
    doc["kernel"] = {"compactor": True}
    with pytest.raises(ExperimentError, match="kernel.compactor"):
        validate_scenario(doc)


@pytest.mark.parametrize("attr, cls", sorted(SECTION_TYPES.items()))
def test_section_keys_are_the_dataclass_fields(attr, cls):
    from repro.runtime.scenario import build_config

    key = "shards" if attr == "shard" else attr
    doc = v0_doc(schema_version=1, **{key: dataclasses.asdict(cls())})
    assert getattr(build_config(doc), attr) == cls()
    doc[key] = {"nope": 1}
    with pytest.raises(ExperimentError, match=rf"{key}\.nope"):
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
    "profile": st.booleans(),
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
        migrated, _notes = migrate_scenario(doc)
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
