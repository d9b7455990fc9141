"""The typed monitoring sample.

:class:`MonitorSample` is what
:class:`~repro.control.monitor.NetworkMonitor` hands to apps.
Attribute access is the API; :meth:`MonitorSample.as_dict` gives a
plain-dict view.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Tuple

#: A sample key: (switch name, port number) — the egress direction.
PortKey = Tuple[str, int]


@dataclass
class MonitorSample:
    """One monitoring sample: per-egress-port rates and utilization.

    Attributes
    ----------
    time:
        Simulation time the sample was taken at.
    tx_bps / rx_bps:
        Per ``(switch, port)`` egress/ingress rate derived from counter
        deltas since the previous sample (empty on the first sample).
    utilization:
        ``tx_bps / link capacity`` per egress port with a live link.
    congested:
        Ports whose utilization met the monitor's threshold.
    """

    time: float
    tx_bps: Dict[PortKey, float] = field(default_factory=dict)
    rx_bps: Dict[PortKey, float] = field(default_factory=dict)
    utilization: Dict[PortKey, float] = field(default_factory=dict)
    congested: List[PortKey] = field(default_factory=list)

    def as_dict(self) -> dict:
        """A plain-dict view."""
        return {name: getattr(self, name) for name in _FIELD_NAMES}


_FIELD_NAMES: Tuple[str, ...] = tuple(f.name for f in fields(MonitorSample))
