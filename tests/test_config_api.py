"""The configuration API: one dataclass declaration per knob.

Nested section dataclasses are the whole surface: sections coerce from
instances, dicts or None, the flat pre-section keywords are gone (not
aliased), and every enum/range rule is ``HorseConfig.validate``'s.
"""

import pytest

from repro.core.config import (
    CheckpointConfig,
    HorseConfig,
    HybridConfig,
    TelemetryConfig,
    WireConfig,
)
from repro.errors import ExperimentError


# ----------------------------------------------------------------------
# Nested construction
# ----------------------------------------------------------------------
def test_default_sections():
    config = HorseConfig()
    assert config.hybrid == HybridConfig()
    assert config.wire == WireConfig()
    assert config.telemetry == TelemetryConfig()
    assert config.checkpoint == CheckpointConfig()


def test_sections_accept_instances_and_dicts():
    by_instance = HorseConfig(hybrid=HybridConfig(select="top:2"))
    by_dict = HorseConfig(hybrid={"select": "top:2"})
    assert by_instance.hybrid == by_dict.hybrid
    assert HorseConfig(hybrid=None).hybrid == HybridConfig()


def test_section_dict_unknown_key_rejected():
    with pytest.raises(ExperimentError, match="unknown"):
        HorseConfig(wire={"listne": "127.0.0.1:0"})


def test_knob_ledger():
    """Every knob's dotted path, read off the config dataclasses.  A new
    knob is a reviewed line here, as a new export is in
    ``tools/api-surface.json``."""
    assert _knob_paths() == [
        "checkpoint.interval_s",
        "checkpoint.path",
        "control",
        "control_latency_s",
        "engine",
        "entry_expiry_interval_s",
        "hybrid.select",
        "hybrid.sync_interval_s",
        "max_hops",
        "mean_packet_bytes",
        "mtu_bytes",
        "pipeline_tables",
        "queue_capacity_packets",
        "seed",
        "table_size",
        "telemetry.link_sample_interval_s",
        "telemetry.monitor_interval_s",
        "telemetry.monitor_mode",
        "telemetry.monitor_push_min_delta_bytes",
        "telemetry.monitor_threshold",
        "telemetry.trace_path",
        "wire.client",
        "wire.client_routes",
        "wire.dilation",
        "wire.latency_budget_s",
        "wire.listen",
        "wire.sync_quantum_s",
    ]


def test_unknown_kwarg_still_rejected():
    # "hybrid_select" was a flat alias of hybrid.select; it is removed,
    # not deprecated, so it fails like any other unknown keyword.
    # The solver, route-cache and kernel knobs picked between
    # implementations of the same simulation; they are gone the same way.
    for removed_or_unknown in (
        "hybrid_select", "hybrid_selector", "solver", "route_cache", "kernel"
    ):
        with pytest.raises(TypeError, match=removed_or_unknown):
            HorseConfig(**{removed_or_unknown: "all"})
    assert not hasattr(HorseConfig(), "hybrid_select")


def test_prior_semantics_still_validated():
    with pytest.raises(ExperimentError):
        HorseConfig(engine="quantum")
    with pytest.raises(ExperimentError):
        HorseConfig(checkpoint={"interval_s": 5.0})  # needs a path
    with pytest.raises(ExperimentError):
        HorseConfig(telemetry={"monitor_mode": "stream"})
    for interval in (-0.5, 0):
        with pytest.raises(
            ExperimentError, match=r"telemetry\.link_sample_interval_s"
        ):
            HorseConfig(telemetry={"link_sample_interval_s": interval})
        with pytest.raises(ExperimentError, match=r"telemetry\.monitor_interval_s"):
            HorseConfig(telemetry={"monitor_interval_s": interval})
        with pytest.raises(ExperimentError, match="entry_expiry_interval_s"):
            HorseConfig(entry_expiry_interval_s=interval)


# ----------------------------------------------------------------------
# Components are built from the config
# ----------------------------------------------------------------------
def _knob_paths():
    """The sorted dotted path of every knob: HorseConfig's scalar fields
    and each section's fields under the section's name."""
    from repro.core.config import SECTION_TYPES

    paths = [name for name in HorseConfig.__dataclass_fields__
             if name not in SECTION_TYPES]
    for section, cls in SECTION_TYPES.items():
        paths += [f"{section}.{name}" for name in cls.__dataclass_fields__]
    return sorted(paths)


def _knob_names():
    """Every name a config field goes by: the knobs' own names and the
    section attributes."""
    from repro.core.config import SECTION_TYPES

    return {path.rpartition(".")[2] for path in _knob_paths()} | set(SECTION_TYPES)


def test_no_component_restates_a_knob():
    """A component takes the config (or section) it is configured by:
    no constructor parameter is itself a config field, so no default
    and no range rule can be written a second time."""
    import inspect

    from repro.flowsim import FlowLevelEngine
    from repro.hybrid import HybridEngine
    from repro.pktsim import PacketLevelEngine
    from repro.wire import TimeGate, WireRuntime

    # An engine's ``control`` is the channel object it is wired to, not
    # the "inproc"/"wire" field that happens to share the name.
    knobs = _knob_names() - {"control"}
    for component in (
        FlowLevelEngine, PacketLevelEngine, HybridEngine, WireRuntime, TimeGate
    ):
        params = set(inspect.signature(component.__init__).parameters)
        assert not params & knobs, (component.__name__, sorted(params & knobs))


def test_standalone_engines_carry_the_default_config(line2):
    from repro.flowsim import FlowLevelEngine
    from repro.hybrid import HybridEngine
    from repro.pktsim import PacketLevelEngine
    from repro.sim import Simulator

    default = HorseConfig()

    def check_flow(engine):
        assert engine.max_hops == default.max_hops
        assert engine.mean_packet_bytes == default.mean_packet_bytes

    def check_packet(engine):
        assert engine.mtu_bytes == default.mtu_bytes
        assert engine.queue_capacity_packets == default.queue_capacity_packets
        assert engine.max_hops == default.max_hops

    check_flow(FlowLevelEngine(Simulator(), line2))
    check_packet(PacketLevelEngine(Simulator(), line2))
    hybrid = HybridEngine(Simulator(), line2)
    assert hybrid.policy.spec == default.hybrid.select
    assert hybrid.sync_interval_s == default.hybrid.sync_interval_s
    check_flow(hybrid.background)
    check_packet(hybrid.foreground)

    # And a given config reaches both halves of the hybrid.
    custom = HorseConfig(max_hops=7, mtu_bytes=900, mean_packet_bytes=500)
    hybrid = HybridEngine(Simulator(), line2, config=custom)
    assert hybrid.background.max_hops == hybrid.foreground.max_hops == 7
    assert hybrid.foreground.mtu_bytes == 900
    assert hybrid.background.mean_packet_bytes == 500


def test_one_check_typed(line2):
    """Every range rule fails as ExperimentError, from validate(), also
    when the config was valid when built and mutated afterwards."""
    from repro import Horse

    with pytest.raises(ExperimentError, match="hybrid.sync_interval_s"):
        HorseConfig(engine="hybrid", hybrid={"sync_interval_s": 0})
    with pytest.raises(ExperimentError, match="wire.dilation"):
        HorseConfig(control="wire", wire={"dilation": -1})

    mutated = HorseConfig(engine="hybrid")
    mutated.hybrid.sync_interval_s = 0
    with pytest.raises(ExperimentError, match="hybrid.sync_interval_s"):
        Horse(line2, config=mutated)

    mutated = HorseConfig(control="wire")
    mutated.wire.dilation = -1
    with pytest.raises(ExperimentError, match="wire.dilation"):
        Horse(line2, config=mutated)

    mutated = HorseConfig()
    mutated.engine = "vector"
    with pytest.raises(ExperimentError, match="engine"):
        Horse(line2, config=mutated)
