"""Meters: rate-limiting with drop bands.

A meter caps the rate of all traffic directed through it.  The
flow-level engine uses :meth:`Meter.cap_rate` — a fluid interpretation
where the meter clamps the aggregate's offered rate.  The packet-level
baseline uses :meth:`Meter.admit_packet` — a token bucket that drops
packets beyond the configured rate, which is how hardware meters behave.
Both views share one configuration, so the two engines are directly
comparable (experiment E3/E4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from ..errors import MeterError
from .flowtable import unobserved


@dataclass(frozen=True, slots=True)
class DropBand:
    """Drop traffic exceeding ``rate_bps`` (with ``burst_bits`` slack)."""

    rate_bps: float
    burst_bits: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise MeterError(f"band rate must be > 0, got {self.rate_bps}")
        if self.burst_bits < 0:
            raise MeterError(f"burst must be >= 0, got {self.burst_bits}")


class Meter:
    """One meter instance: the lowest-rate drop band is the binding cap."""

    def __init__(self, meter_id: int, bands: Sequence[DropBand]) -> None:
        if meter_id < 0:
            raise MeterError(f"meter_id must be >= 0, got {meter_id}")
        if not bands:
            raise MeterError(f"meter {meter_id} must have at least one band")
        self.meter_id = meter_id
        self.bands: List[DropBand] = sorted(bands, key=lambda b: b.rate_bps)
        # Token bucket state for the packet-level view.
        self._tokens_bits = self.burst_bits or self.rate_bps * 0.01
        self._bucket_cap = self._tokens_bits
        self._last_refill = 0.0
        #: Cumulative accounting.
        self.in_bytes = 0
        self.dropped_bytes = 0
        self.dropped_packets = 0

    @property
    def rate_bps(self) -> float:
        """The binding (lowest) band rate."""
        return self.bands[0].rate_bps

    @property
    def burst_bits(self) -> float:
        return self.bands[0].burst_bits

    # ------------------------------------------------------------------
    # Flow-level (fluid) view
    # ------------------------------------------------------------------
    def cap_rate(self, offered_bps: float) -> float:
        """Clamp an aggregate's offered rate to the meter rate."""
        if offered_bps < 0:
            raise MeterError(f"offered rate must be >= 0, got {offered_bps}")
        return min(offered_bps, self.rate_bps)

    def account_fluid(self, offered_bps: float, duration_s: float) -> None:
        """Record fluid-model drops over an interval for statistics."""
        allowed = self.cap_rate(offered_bps)
        self.in_bytes += int(offered_bps * duration_s / 8)
        self.dropped_bytes += int(max(0.0, offered_bps - allowed) * duration_s / 8)

    # ------------------------------------------------------------------
    # Packet-level (token bucket) view
    # ------------------------------------------------------------------
    def admit_packet(self, size_bytes: int, now: float) -> bool:
        """Token-bucket admission for one packet at time ``now``."""
        if now < self._last_refill:
            raise MeterError(
                f"meter {self.meter_id} time went backwards: "
                f"{now} < {self._last_refill}"
            )
        elapsed = now - self._last_refill
        self._tokens_bits = min(
            self._bucket_cap, self._tokens_bits + elapsed * self.rate_bps
        )
        self._last_refill = now
        size_bits = size_bytes * 8
        self.in_bytes += size_bytes
        if size_bits <= self._tokens_bits:
            self._tokens_bits -= size_bits
            return True
        self.dropped_bytes += size_bytes
        self.dropped_packets += 1
        return False

    def reset_bucket(self, now: float = 0.0) -> None:
        """Refill the token bucket (e.g. on simulation reset)."""
        self._tokens_bits = self._bucket_cap
        self._last_refill = now

    def stats(self) -> dict:
        return {
            "meter_id": self.meter_id,
            "rate_bps": self.rate_bps,
            "in_bytes": self.in_bytes,
            "dropped_bytes": self.dropped_bytes,
            "dropped_packets": self.dropped_packets,
        }

    def __repr__(self) -> str:
        return f"<Meter {self.meter_id} rate={self.rate_bps / 1e6:.3g}Mbps>"


class MeterTable:
    """The per-switch registry of meters."""

    def __init__(self, on_change: Callable[[], None] = unobserved) -> None:
        self._meters: Dict[int, Meter] = {}
        #: Called on every mutation: the owning pipeline's version bump
        #: (routing caches detect meter-mods by it).
        self._on_change = on_change

    def add(self, meter_id: int, bands: Sequence[DropBand]) -> Meter:
        if meter_id in self._meters:
            raise MeterError(f"meter {meter_id} already exists")
        meter = Meter(meter_id, bands)
        self._meters[meter_id] = meter
        self._on_change()
        return meter

    def modify(self, meter_id: int, bands: Sequence[DropBand]) -> Meter:
        if meter_id not in self._meters:
            raise MeterError(f"cannot modify unknown meter {meter_id}")
        meter = Meter(meter_id, bands)
        self._meters[meter_id] = meter
        self._on_change()
        return meter

    def delete(self, meter_id: int) -> Meter:
        try:
            meter = self._meters.pop(meter_id)
        except KeyError:
            raise MeterError(f"cannot delete unknown meter {meter_id}") from None
        self._on_change()
        return meter

    def get(self, meter_id: int) -> Meter:
        try:
            return self._meters[meter_id]
        except KeyError:
            raise MeterError(f"unknown meter {meter_id}") from None

    def __contains__(self, meter_id: int) -> bool:
        return meter_id in self._meters

    def __len__(self) -> int:
        return len(self._meters)

    @property
    def meters(self) -> List[Meter]:
        return list(self._meters.values())

    def clear(self) -> None:
        if self._meters:
            self._on_change()
        self._meters.clear()
