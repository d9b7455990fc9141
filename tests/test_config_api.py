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
    KernelConfig,
    ShardConfig,
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
    assert config.shard == ShardConfig()
    assert config.shard.count == 1
    assert config.kernel == KernelConfig()
    assert config.kernel.compaction_threshold == 0.5


def test_sections_accept_instances_and_dicts():
    by_instance = HorseConfig(hybrid=HybridConfig(select="top:2"))
    by_dict = HorseConfig(hybrid={"select": "top:2"})
    assert by_instance.hybrid == by_dict.hybrid
    assert HorseConfig(hybrid=None).hybrid == HybridConfig()


def test_section_dict_unknown_key_rejected():
    with pytest.raises(ExperimentError, match="unknown"):
        HorseConfig(wire={"listne": "127.0.0.1:0"})


def test_shard_section_validation():
    assert HorseConfig(shard={"count": 2}).shard.count == 2
    with pytest.raises(ExperimentError, match="count"):
        HorseConfig(shard={"count": 0})
    with pytest.raises(ExperimentError, match="quantum"):
        HorseConfig(shard={"count": 2, "quantum_s": -1.0})
    with pytest.raises(ExperimentError, match="partition"):
        HorseConfig(shard={"count": 2, "partition": "metis"})


def test_kernel_section_validation():
    assert HorseConfig(
        kernel={"compaction_threshold": None}
    ).kernel.compaction_threshold is None
    with pytest.raises(ExperimentError, match="kernel.queue: unknown key"):
        HorseConfig(kernel={"queue": "heap"})  # the knob is gone
    with pytest.raises(ExperimentError, match="compaction_threshold"):
        HorseConfig(kernel={"compaction_threshold": 1.5})
    with pytest.raises(ExperimentError, match="compaction_threshold"):
        HorseConfig(kernel={"compaction_threshold": 0.0})
    with pytest.raises(ExperimentError, match="min_compact_size"):
        HorseConfig(kernel={"min_compact_size": -1})
    with pytest.raises(ExperimentError, match="unknown"):
        HorseConfig(kernel={"threshold": 0.5})


def test_sharding_requires_flow_engine_inproc_control():
    with pytest.raises(ExperimentError, match="flow"):
        HorseConfig(engine="packet", shard={"count": 2})
    with pytest.raises(ExperimentError, match="control"):
        HorseConfig(control="wire", shard={"count": 2})


def test_solver_modes_are_incremental_and_full():
    from repro.core.config import SOLVER_MODES

    assert SOLVER_MODES == ("incremental", "full")
    for mode in SOLVER_MODES:
        assert HorseConfig(solver=mode).solver == mode
    with pytest.raises(ExperimentError, match="solver"):
        HorseConfig(solver="vector")


def test_unknown_kwarg_still_rejected():
    # "hybrid_select" was a flat alias of hybrid.select; it is removed,
    # not deprecated, so it fails like any other unknown keyword.
    for removed_or_unknown in ("hybrid_select", "hybrid_selector"):
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
def _knob_names():
    """Every name a config field goes by: HorseConfig's own fields
    (scalars and section attributes) and each section's fields."""
    from repro.core.config import SECTION_TYPES

    names = list(HorseConfig.__dataclass_fields__)
    for section in SECTION_TYPES.values():
        names += section.__dataclass_fields__
    # 36 knobs = everything but the six section attributes themselves.
    assert len(names) - len(SECTION_TYPES) == 36
    return set(names)


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
        assert engine.solver_mode == default.solver
        assert (engine._route_cache is not None) == default.route_cache

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
    custom = HorseConfig(max_hops=7, mtu_bytes=900, solver="full")
    hybrid = HybridEngine(Simulator(), line2, config=custom)
    assert hybrid.background.max_hops == hybrid.foreground.max_hops == 7
    assert hybrid.foreground.mtu_bytes == 900
    assert hybrid.background.solver_mode == "full"


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
    mutated.solver = "vector"
    with pytest.raises(ExperimentError, match="solver"):
        Horse(line2, config=mutated)
