"""Statistics collection across a run.

:class:`RunStatsCollector` samples per-link utilization series during
a run and, handed an engine's flows after it, reports completion times,
throughputs and fairness.

:class:`~repro.core.simulator.Horse` constructs one per run and exposes
it as ``horse.collector``; construct your own only for engine-less
analysis.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..flowsim.flow import Flow, FlowState
from ..net.topology import Topology
from ..sim.kernel import Simulator
from .metrics import jain_fairness, summarize
from .timeseries import TimeSeries


class RunStatsCollector:
    """Record flow outcomes and link utilization.

    Use :meth:`enable_link_sampling` (or :meth:`sample_links` on your
    own event) for utilization series; :meth:`harvest_flows` takes the
    flows of any engine after the run.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.completed: List[Flow] = []
        self.link_utilization: Dict[Tuple[str, int], TimeSeries] = {}
        self._sync: Optional[Callable[[], object]] = None

    # ------------------------------------------------------------------
    # Live collection
    # ------------------------------------------------------------------
    def enable_link_sampling(
        self, sim: Simulator, interval: float = 1.0,
        sync: Optional[Callable[[], object]] = None,
    ) -> None:
        """Sample allocated utilization of every link periodically;
        ``sync``, when given, runs before each sample (an engine that
        sums its link loads when they are read)."""
        self._sync = sync
        sim.every(interval, self._sample_tick)

    def _sample_tick(self, sim: Simulator, time: float) -> None:
        if self._sync is not None:
            self._sync()
        self.sample_links(time)

    def sample_links(self, time: float) -> None:
        """Record every direction's current allocated utilization."""
        for direction in self.topology.directions():
            key = (direction.src_port.node.name, direction.src_port.number)
            series = self.link_utilization.get(key)
            if series is None:
                series = TimeSeries(f"{key[0]}:{key[1]}")
                self.link_utilization[key] = series
            series.append(time, direction.utilization)

    # ------------------------------------------------------------------
    # Post-hoc harvesting (works with any engine)
    # ------------------------------------------------------------------
    def harvest_flows(self, flows) -> None:
        """Collect completed flows from an engine's flow map."""
        values = flows.values() if isinstance(flows, dict) else flows
        for flow in values:
            if flow.state is FlowState.COMPLETED and flow not in self.completed:
                self.completed.append(flow)

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def fct_summary(self) -> dict:
        """Flow-completion-time summary for completed volume flows."""
        fcts = [
            f.flow_completion_time
            for f in self.completed
            if f.flow_completion_time is not None
        ]
        return summarize(fcts)

    def throughput_by_flow(self) -> Dict[int, float]:
        """Average goodput (bps) per completed flow."""
        out: Dict[int, float] = {}
        for flow in self.completed:
            fct = flow.flow_completion_time
            if fct and fct > 0:
                out[flow.flow_id] = flow.bytes_delivered * 8.0 / fct
        return out

    def fairness(self) -> float:
        """Jain's index over completed-flow throughputs."""
        return jain_fairness(list(self.throughput_by_flow().values()))

    def max_link_utilization(self) -> Dict[Tuple[str, int], float]:
        return {
            key: series.maximum()
            for key, series in self.link_utilization.items()
        }

    def mean_link_utilization(self) -> Dict[Tuple[str, int], float]:
        return {
            key: series.time_weighted_mean()
            for key, series in self.link_utilization.items()
        }
