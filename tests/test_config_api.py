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
    from repro.flowsim.engine import SOLVER_MODES

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
