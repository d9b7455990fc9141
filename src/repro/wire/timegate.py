"""The hybrid simulated/wall clock gate.

The follow-up paper's central mechanism: when a real controller sits on
the other end of a TCP connection, its thinking time is *wall-clock*
time, while the data plane advances in *simulated* time.  The gate
reconciles the two by freezing the kernel while wire round trips are
outstanding:

* Every northbound request registered with :meth:`begin` opens a round
  trip; the matching southbound answer closes it via :meth:`complete`.
* The simulation thread blocks in :meth:`wait` (one round trip) or
  :meth:`sync` (every outstanding round trip, called at each sync
  quantum boundary) until the controller has answered or the *latency
  budget* is exhausted.
* The wall-clock duration of each round trip, multiplied by the
  *dilation* factor, becomes the simulated latency charged to the
  exchange.  ``dilation=0`` (the default) reproduces the in-process
  synchronous channel exactly — the controller answers "instantly" in
  simulated time no matter how long it really took — which is what
  makes wire runs digest-identical to in-proc runs.

The gate itself never touches simulation state; it only decides how
long the *host* thread sleeps and what latency value the transport
charges.  All methods are thread-safe: the simulation thread waits,
the server's asyncio thread completes.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from ..core.config import WireConfig


class TimeGate:
    """Synchronization point between the kernel and the wire, timed by
    ``sync_quantum_s`` / ``latency_budget_s`` / ``dilation`` of a
    :class:`~repro.core.config.WireConfig` (``HorseConfig.validate``
    holds their range rules)."""

    def __init__(self, wire_config: WireConfig) -> None:
        self.sync_quantum_s = float(wire_config.sync_quantum_s)
        self.latency_budget_s = float(wire_config.latency_budget_s)
        self.dilation = float(wire_config.dilation)
        self._cond = threading.Condition()
        #: xid -> wall-clock start of the outstanding round trip.
        self._outstanding: Dict[int, float] = {}
        #: Wall seconds spent blocked in wait()/sync() (telemetry only).
        self.blocked_wall_s = 0.0
        #: Round trips abandoned because the budget ran out.
        self.budget_misses = 0
        #: Round trips completed within budget.
        self.completed = 0

    # -- round-trip accounting (any thread) ----------------------------

    def begin(self, xid: int) -> None:
        """Open a round trip keyed by the request's transaction id."""
        now = time.monotonic()  # repro: noqa[DET001] - wall clock measures controller latency, never sim state
        with self._cond:
            self._outstanding[xid] = now

    def complete(self, xid: int) -> Optional[float]:
        """Close a round trip; returns its wall-clock duration, or None
        for unknown xids (unsolicited southbound traffic is not a round
        trip)."""
        now = time.monotonic()  # repro: noqa[DET001] - wall clock measures controller latency, never sim state
        with self._cond:
            started = self._outstanding.pop(xid, None)
            if started is not None:
                self.completed += 1
            self._cond.notify_all()
        return None if started is None else max(0.0, now - started)

    def abandon(self, xid: int) -> None:
        """Drop a round trip without counting it (connection closed)."""
        with self._cond:
            self._outstanding.pop(xid, None)
            self._cond.notify_all()

    @property
    def outstanding(self) -> int:
        with self._cond:
            return len(self._outstanding)

    # -- blocking (simulation thread) ----------------------------------

    def wait(self, xid: int) -> float:
        """Block until round trip ``xid`` completes or the latency
        budget is exhausted.  Returns the wall seconds waited; the xid
        is abandoned (and counted as a budget miss) on timeout."""
        start = time.monotonic()  # repro: noqa[DET001] - wall clock paces the host thread only
        deadline = start + self.latency_budget_s
        with self._cond:
            while xid in self._outstanding:
                remaining = deadline - time.monotonic()  # repro: noqa[DET001] - wall clock paces the host thread only
                if remaining <= 0:
                    self._outstanding.pop(xid, None)
                    self.budget_misses += 1
                    break
                self._cond.wait(remaining)
        waited = time.monotonic() - start  # repro: noqa[DET001] - wall clock paces the host thread only
        with self._cond:
            self.blocked_wall_s += waited
        return waited

    def sync(self, budget_s: Optional[float] = None) -> float:
        """Block until every outstanding round trip completes (or the
        budget runs out; stragglers are abandoned).  Returns the wall
        seconds waited.  Called at each sync-quantum boundary so the
        kernel never runs ahead of an un-answered controller."""
        start = time.monotonic()  # repro: noqa[DET001] - wall clock paces the host thread only
        deadline = start + (
            self.latency_budget_s if budget_s is None else budget_s
        )
        with self._cond:
            while self._outstanding:
                remaining = deadline - time.monotonic()  # repro: noqa[DET001] - wall clock paces the host thread only
                if remaining <= 0:
                    self.budget_misses += len(self._outstanding)
                    self._outstanding.clear()
                    break
                self._cond.wait(remaining)
        waited = time.monotonic() - start  # repro: noqa[DET001] - wall clock paces the host thread only
        with self._cond:
            self.blocked_wall_s += waited
        return waited

    def note_blocked(self, wall_s: float) -> None:
        """Account wall time a caller spent blocked outside the gate's
        own wait methods (the transport's inline packet-in wait)."""
        with self._cond:
            self.blocked_wall_s += max(0.0, wall_s)

    # -- checkpointing -------------------------------------------------

    def __getstate__(self) -> dict:
        """Drop the live lock and outstanding round trips: wire round
        trips are wall-clock state and do not survive a snapshot."""
        state = self.__dict__.copy()
        state["_cond"] = None
        state["_outstanding"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._cond = threading.Condition()
        self._outstanding = {}

    # -- wall -> simulated mapping -------------------------------------

    def simulated_latency(self, wall_elapsed_s: float) -> float:
        """Simulated seconds to charge for a measured wall delay."""
        return max(0.0, wall_elapsed_s) * self.dilation

    def stats(self) -> Dict[str, float]:
        """Telemetry snapshot (pull-source friendly)."""
        with self._cond:
            return {
                "outstanding": float(len(self._outstanding)),
                "completed": float(self.completed),
                "budget_misses": float(self.budget_misses),
                "blocked_wall_s": self.blocked_wall_s,
            }
