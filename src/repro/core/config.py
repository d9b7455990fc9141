"""Configuration for the Horse simulator façade.

:class:`HorseConfig` groups the run knobs into nested sections —
:class:`HybridConfig`, :class:`WireConfig`, :class:`TelemetryConfig`
and :class:`CheckpointConfig`::

    HorseConfig(engine="hybrid",
                hybrid=HybridConfig(select="top:4"),
                telemetry=TelemetryConfig(monitor_interval_s=0.5))

The dataclass fields below are the only declaration of a knob: the
scenario schema (:mod:`repro.runtime.schema`, ``"schema_version": 1``)
derives the keys and JSON types it accepts from them, and every enum
and range rule lives in :meth:`HorseConfig.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ExperimentError


@dataclass
class HybridConfig:
    """Hybrid flow/packet co-simulation knobs (``engine="hybrid"``).

    Attributes
    ----------
    select:
        Foreground selection spec: ``none``, ``all``, ``top:K``, or
        ``match:field=value[,...]`` (see
        :class:`repro.hybrid.SelectionPolicy`).
    sync_interval_s:
        Cadence of the foreground/background coupling exchange
        (seconds of simulated time).
    """

    select: str = "none"
    sync_interval_s: float = 0.05


@dataclass
class WireConfig:
    """External OpenFlow 1.3 control-plane gateway knobs
    (``control="wire"``; see :mod:`repro.wire`).

    Attributes
    ----------
    listen:
        ``"host:port"`` to listen on (port 0 picks a free port).
    client:
        None to wait for an external controller, or ``"learning"`` /
        ``"static"`` to run the built-in client in a thread against
        this run's own listener (self-driven loopback).
    client_routes:
        Route dicts for ``client="static"``.
    sync_quantum_s:
        Simulated time between control-plane synchronization points.
    latency_budget_s:
        Wall-clock seconds to wait for a controller answer.
    dilation:
        Simulated seconds charged per wall-clock second of controller
        thinking time (0 reproduces the synchronous in-proc channel).
    """

    listen: str = "127.0.0.1:0"
    client: Optional[str] = None
    client_routes: Optional[list] = None
    sync_quantum_s: float = 0.05
    latency_budget_s: float = 5.0
    dilation: float = 0.0

    def parsed_listen(self) -> tuple:
        """``listen`` split into ``(host, port)``."""
        host, sep, port = str(self.listen).rpartition(":")
        if not sep or not host:
            raise ExperimentError(
                f"wire.listen must be 'host:port', got {self.listen!r}"
            )
        try:
            return host, int(port)
        except ValueError:
            raise ExperimentError(
                f"wire.listen port must be an integer, got {port!r}"
            ) from None


@dataclass
class TelemetryConfig:
    """Observation knobs: monitoring, link sampling, tracing.

    Attributes
    ----------
    monitor_interval_s:
        Port-stats sampling period; None disables monitoring.
    monitor_threshold:
        Utilization above which the monitor flags a port.
    monitor_mode:
        ``"poll"`` (the monitor reads counters itself) or ``"push"``
        (the channel pushes counter samples; docs/observability.md).
    monitor_push_min_delta_bytes:
        Push mode only: suppress a push unless some port counter moved
        at least this much since the last delivered push.
    link_sample_interval_s:
        Utilization sampling period for the stats collector; None
        disables sampling.
    trace_path:
        When set, structured tracing is enabled for the whole run and
        records are appended (JSONL) to this path.  Its spans say where
        the wall time went (``repro trace summarize``); nothing it
        records enters the run's result.
    """

    monitor_interval_s: Optional[float] = None
    monitor_threshold: float = 0.9
    monitor_mode: str = "poll"
    monitor_push_min_delta_bytes: float = 0.0
    link_sample_interval_s: Optional[float] = None
    trace_path: Optional[str] = None


@dataclass
class CheckpointConfig:
    """Checkpoint/restore knobs (see :mod:`repro.runtime`).

    Attributes
    ----------
    path:
        Target for :meth:`Horse.checkpoint` calls; with ``interval_s``
        also the periodic-checkpoint destination.
    interval_s:
        Simulated seconds between periodic checkpoints (needs
        ``path``); None disables the ticker.
    """

    path: Optional[str] = None
    interval_s: Optional[float] = None


#: Section attribute name -> its dataclass type.
SECTION_TYPES = {
    "hybrid": HybridConfig,
    "wire": WireConfig,
    "telemetry": TelemetryConfig,
    "checkpoint": CheckpointConfig,
}


def reject_unknown(keys, known, prefix: str = "") -> None:
    """Raise on the first of ``keys`` that is not in ``known``: the one
    rule, and the one message, for a misspelt section field or scenario
    key (the scenario schema calls this too)."""
    for key in keys:
        if key not in known:
            raise ExperimentError(f"{prefix}{key}: unknown key")


def _coerce_section(value, section: str):
    """Accept a section instance, a plain dict, or None (defaults)."""
    cls = SECTION_TYPES[section]
    if value is None:
        return cls()
    if isinstance(value, cls):
        return value
    if isinstance(value, dict):
        reject_unknown(value, cls.__dataclass_fields__, f"{section}.")
        return cls(**value)
    raise ExperimentError(
        f"{section} must be a {cls.__name__}, a dict, or None, "
        f"got {type(value).__name__}"
    )


@dataclass
class HorseConfig:
    """Top-level knobs for a :class:`~repro.core.simulator.Horse` run.

    Attributes
    ----------
    engine:
        ``"flow"`` (Horse's flow-level abstraction, default),
        ``"packet"`` (the per-packet baseline), or ``"hybrid"``
        (selected flows at packet granularity inside flow-level
        background traffic; see :mod:`repro.hybrid`).
    seed:
        Master seed for every stochastic component.
    control_latency_s:
        One-way control channel delay; 0 means the poster's synchronous
        abstraction.
    mtu_bytes / queue_capacity_packets:
        Packet engine parameters.
    pipeline_tables:
        Minimum tables per switch pipeline; raised automatically to what
        the compiled policy composition needs.
    entry_expiry_interval_s:
        Period of the rule-timeout sweep, on every engine; None
        disables it (enable when policies use idle/hard timeouts).
    control:
        ``"inproc"`` (the poster's in-process controller objects,
        default) or ``"wire"`` (real OpenFlow 1.3 TCP connections via
        :mod:`repro.wire`).  Wire control requires
        ``control_latency_s == 0`` — latency comes from the wall clock
        through the time gate — and is incompatible with in-process
        policies/controllers.
    hybrid / wire / telemetry / checkpoint:
        Nested sections; see :class:`HybridConfig`,
        :class:`WireConfig`, :class:`TelemetryConfig` and
        :class:`CheckpointConfig`.  Each accepts an instance, a plain
        dict, or None (the section's defaults).
    """

    engine: str = "flow"
    seed: int = 0
    control_latency_s: float = 0.0
    mtu_bytes: int = 1500
    queue_capacity_packets: int = 100
    pipeline_tables: int = 1
    table_size: Optional[int] = None
    entry_expiry_interval_s: Optional[float] = None
    mean_packet_bytes: int = 1000
    max_hops: int = 64
    control: str = "inproc"
    hybrid: HybridConfig = field(default_factory=HybridConfig)
    wire: WireConfig = field(default_factory=WireConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)

    def __post_init__(self) -> None:
        for section in SECTION_TYPES:
            setattr(self, section, _coerce_section(getattr(self, section), section))
        self.validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check cross-field consistency; raises
        :class:`~repro.errors.ExperimentError` on the first violation.
        Called by the constructor and again by ``Horse``, so a config
        mutated in between is still checked.  The components a config
        is handed to (engines, the wire runtime, the time gate) read
        their fields and re-check nothing.
        """
        if self.engine not in ("flow", "packet", "hybrid"):
            raise ExperimentError(
                f"engine must be 'flow', 'packet', or 'hybrid', got {self.engine!r}"
            )
        if self.hybrid.sync_interval_s <= 0:
            raise ExperimentError("hybrid.sync_interval_s must be > 0")
        tel = self.telemetry
        if tel.monitor_mode not in ("poll", "push"):
            raise ExperimentError(
                "telemetry.monitor_mode must be 'poll' or 'push', "
                f"got {tel.monitor_mode!r}"
            )
        if tel.monitor_push_min_delta_bytes < 0:
            raise ExperimentError(
                "telemetry.monitor_push_min_delta_bytes must be >= 0"
            )
        for path, interval in (
            ("telemetry.monitor_interval_s", tel.monitor_interval_s),
            ("telemetry.link_sample_interval_s", tel.link_sample_interval_s),
            ("entry_expiry_interval_s", self.entry_expiry_interval_s),
        ):
            if interval is not None and interval <= 0:
                raise ExperimentError(
                    f"{path} must be > 0 or None, got {interval!r}"
                )
        if self.control_latency_s < 0:
            raise ExperimentError("control latency must be >= 0")
        if self.pipeline_tables < 1:
            raise ExperimentError("need >= 1 pipeline table")
        if self.control not in ("inproc", "wire"):
            raise ExperimentError(
                f"control must be 'inproc' or 'wire', got {self.control!r}"
            )
        if self.control == "wire":
            if self.control_latency_s != 0.0:
                raise ExperimentError(
                    "wire control requires control_latency_s == 0 "
                    "(latency comes from the wall clock via the time gate)"
                )
            if self.wire.sync_quantum_s <= 0:
                raise ExperimentError("wire.sync_quantum_s must be > 0")
            if self.wire.latency_budget_s <= 0:
                raise ExperimentError("wire.latency_budget_s must be > 0")
            if self.wire.dilation < 0:
                raise ExperimentError("wire.dilation must be >= 0")
            if self.wire.client not in (None, "learning", "static"):
                raise ExperimentError(
                    "wire.client must be None, 'learning', or 'static', "
                    f"got {self.wire.client!r}"
                )
            self.wire.parsed_listen()  # validates host:port early
        if self.checkpoint.interval_s is not None:
            if self.checkpoint.interval_s <= 0:
                raise ExperimentError("checkpoint.interval_s must be > 0")
            if not self.checkpoint.path:
                raise ExperimentError(
                    "checkpoint.interval_s needs a checkpoint.path"
                )
