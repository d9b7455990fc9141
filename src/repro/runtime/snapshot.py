"""Capturing and resuming complete simulation states.

A :class:`SimulationSnapshot` wraps everything one :class:`~repro.core
.simulator.Horse` instance owns: the kernel (clock + pending event
set), the RNG registry, the topology with its pipelines and counters,
the engine with active flows and solver state, and the statistics
collectors.  The object graph is captured by reference, so a snapshot
taken between events is exactly the live state; serialization happens
in :mod:`repro.runtime.checkpoint`.

Two details make the round trip *bitwise* deterministic:

* Scheduled work must be pickled along with the event set.  Every
  callback the engines/channel/collector schedule is a bound method of
  a captured object (no closures), so the pending events re-bind to the
  restored objects.
* Process-global id counters (flow ids, flow-entry sequence numbers,
  packet ids) are watermarked at capture time and advanced past the
  watermark on resume, so objects created after a restore in a fresh
  process never collide with restored ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict

from .. import __version__ as _repro_version
from ..errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - avoids a core<->runtime cycle
    from ..core.simulator import Horse

#: Version of the captured-state layout, bumped when the object graph
#: changes; the reader refuses every other version.  Each version's
#: layout hash is recorded in ``tests/snapshot_layout.json``, which
#: ``tests/test_snapshot_layout.py`` checks against every run.
SNAPSHOT_VERSION = 13


def _id_watermarks(horse: "Horse") -> Dict[str, int]:
    """Highest process-global ids reachable from the simulation state."""
    max_flow = 0
    for flow_id in horse.engine.flows:
        max_flow = max(max_flow, flow_id)
    max_entry = 0
    for switch in horse.topology.switches:
        pipeline = switch.pipeline
        if pipeline is None:
            continue
        for table in pipeline.tables:
            for entry in table:
                max_entry = max(max_entry, entry.seq)
    from ..openflow.messages import xid_watermark
    from ..pktsim.packet import packet_id_watermark

    return {
        "flow_id": max_flow,
        "entry_seq": max_entry,
        "packet_id": packet_id_watermark(),
        "xid": xid_watermark(),
    }




@dataclass
class SimulationSnapshot:
    """A complete, resumable simulation state plus metadata.

    Attributes
    ----------
    horse:
        The captured simulation instance (held by reference).
    meta:
        Descriptive metadata (sim time, event count, engine, seed,
        package version) — informational, not part of the restored
        state.
    version:
        Snapshot layout version, checked on resume.
    """

    horse: "Horse"
    meta: Dict[str, Any] = field(default_factory=dict)
    version: int = SNAPSHOT_VERSION
    watermarks: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def capture(cls, horse: "Horse") -> "SimulationSnapshot":
        """Snapshot a Horse instance between events.

        The simulation must not be mid-event in a way that left
        engine-internal walk state live; in practice this means calling
        from outside :meth:`Horse.run` or from a scheduled callback
        (e.g. the periodic checkpoint tick), both of which are between
        event effects.
        """
        sim = horse.sim
        meta = {
            "snapshot_version": SNAPSHOT_VERSION,
            "repro_version": _repro_version,
            "engine": horse.config.engine,
            "seed": horse.config.seed,
            "sim_time_s": sim.now,
            "until": getattr(horse, "last_until", None),
            "events_fired": sim.fired_count,
            "events_pending": sim.pending,
            "flows": len(horse.engine.flows),
        }
        return cls(
            horse=horse, meta=meta, watermarks=_id_watermarks(horse)
        )

    def resume(self) -> "Horse":
        """Return the captured Horse, ready to continue running.

        Advances the process-global id counters past the snapshot's
        watermarks so post-restore objects get fresh ids even in a
        brand-new process.
        """
        if self.version != SNAPSHOT_VERSION:
            # An older layout unpickles without the attributes added
            # since, and would fail mid-run instead of here.
            age = "newer" if self.version > SNAPSHOT_VERSION else "older"
            raise CheckpointError(
                f"snapshot version {self.version} is {age} than this "
                f"build's ({SNAPSHOT_VERSION}); only that one can resume"
            )
        from ..flowsim.flow import advance_flow_ids
        from ..openflow.flowtable import advance_entry_seq
        from ..openflow.messages import advance_xids
        from ..pktsim.packet import advance_packet_ids

        advance_flow_ids(self.watermarks.get("flow_id", 0))
        advance_entry_seq(self.watermarks.get("entry_seq", 0))
        advance_packet_ids(self.watermarks.get("packet_id", 0))
        advance_xids(self.watermarks.get("xid", 0))
        return self.horse
