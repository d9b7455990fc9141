"""The OpenFlow pipeline: multi-table lookup, groups, and meters.

:class:`OpenFlowPipeline` is attached to every :class:`~repro.net.node.Switch`.
Both engines drive the same pipeline — the flow-level engine walks it once
per flow (path setup / re-route), the packet-level baseline once per
packet — so a policy compiled to rules behaves identically at either
granularity, which is what makes the accuracy experiment (E3) meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..errors import OpenFlowError
from .action import (
    Action,
    ApplyActions,
    Drop,
    Flood,
    GotoTable,
    GroupAction,
    Instruction,
    MeterInstruction,
    Output,
    PORT_FLOOD,
    PORT_IN_PORT,
    PopVlan,
    PushVlan,
    SetField,
    ToController,
)
from .flowtable import FlowEntry, FlowTable
from .group import Group, GroupTable
from .headers import HeaderFields
from .match import Match
from .meter import MeterTable

if TYPE_CHECKING:  # pragma: no cover
    from ..net.node import Switch

#: Maximum nesting depth when groups reference groups.
_MAX_GROUP_DEPTH = 8


@dataclass
class PipelineResult:
    """The outcome of pushing one traffic aggregate through a pipeline.

    Attributes
    ----------
    out_ports:
        Resolved physical output port numbers (flood already expanded).
    dropped:
        True when an explicit Drop action fired.
    miss:
        True when no table entry matched (OF 1.3 default: drop).
    to_controller:
        True when a ToController action fired (packet-in).
    meter_ids:
        Meter ids traversed, in order; the engines apply their caps.
    matched_entries:
        Entries that matched, for counter accounting by the caller.
    group_hits:
        (group, bucket_index) pairs taken, for bucket accounting.
    headers:
        Possibly rewritten header fields after SetField actions.
    """

    out_ports: List[int] = field(default_factory=list)
    dropped: bool = False
    miss: bool = False
    to_controller: bool = False
    meter_ids: List[int] = field(default_factory=list)
    matched_entries: List[FlowEntry] = field(default_factory=list)
    group_hits: List[Tuple[Group, int]] = field(default_factory=list)
    headers: Optional[HeaderFields] = None

    @property
    def forwards(self) -> bool:
        """True when traffic actually leaves on at least one port."""
        return bool(self.out_ports) and not self.dropped


class OpenFlowPipeline:
    """Flow tables + group table + meter table for one switch."""

    def __init__(
        self,
        switch: "Switch",
        num_tables: int = 2,
        table_size: Optional[int] = None,
    ) -> None:
        if num_tables < 1:
            raise OpenFlowError(f"need >= 1 table, got {num_tables}")
        self.switch = switch
        #: Monotonic pipeline generation: its own flow tables, group
        #: table and meter table bump it on every change (a counter
        #: written on change, not a sum taken on read).  Routing caches
        #: key their entries on the versions of every pipeline they
        #: consulted, so a flow-mod/group-mod invalidates exactly the
        #: cached routes that crossed the modified switch.
        self.version = 0
        self.tables: List[FlowTable] = [
            FlowTable(table_id=i, max_size=table_size, on_change=self._bump)
            for i in range(num_tables)
        ]
        self.groups = GroupTable(on_change=self._bump)
        self.meters = MeterTable(on_change=self._bump)

    def _bump(self) -> None:
        self.version += 1

    # ------------------------------------------------------------------
    # Lookup path
    # ------------------------------------------------------------------
    def process(self, headers: HeaderFields, in_port: int) -> PipelineResult:
        """Run the full multi-table pipeline for one traffic aggregate."""
        result = PipelineResult(headers=headers)
        table_id: Optional[int] = 0
        current = headers
        while table_id is not None:
            if table_id >= len(self.tables):
                raise OpenFlowError(
                    f"goto_table {table_id} beyond pipeline of "
                    f"{len(self.tables)} tables on {self.switch.name}"
                )
            entry = self.tables[table_id].lookup(current, in_port)
            if entry is None:
                result.miss = not result.matched_entries
                break
            result.matched_entries.append(entry)
            next_table: Optional[int] = None
            for instruction in entry.instructions:
                if isinstance(instruction, MeterInstruction):
                    # Validate the reference eagerly; engines apply the cap.
                    self.meters.get(instruction.meter_id)
                    result.meter_ids.append(instruction.meter_id)
                elif isinstance(instruction, ApplyActions):
                    current = self._apply_actions(
                        instruction.actions, current, in_port, result, depth=0
                    )
                elif isinstance(instruction, GotoTable):
                    if instruction.table_id <= table_id:
                        raise OpenFlowError(
                            f"goto_table must move forward: "
                            f"{table_id} -> {instruction.table_id}"
                        )
                    next_table = instruction.table_id
                else:  # pragma: no cover - defensive
                    raise OpenFlowError(f"unknown instruction {instruction!r}")
            table_id = next_table
        result.headers = current
        if result.dropped:
            result.out_ports = []
        return result

    def _apply_actions(
        self,
        actions: Tuple[Action, ...],
        headers: HeaderFields,
        in_port: int,
        result: PipelineResult,
        depth: int,
    ) -> HeaderFields:
        if depth > _MAX_GROUP_DEPTH:
            raise OpenFlowError(
                f"group nesting deeper than {_MAX_GROUP_DEPTH} on {self.switch.name}"
            )
        for action in actions:
            if isinstance(action, Output):
                self._emit(action.port, in_port, result)
            elif isinstance(action, Flood):
                for number in self.flood_ports(in_port):
                    result.out_ports.append(number)
            elif isinstance(action, Drop):
                result.dropped = True
            elif isinstance(action, ToController):
                result.to_controller = True
            elif isinstance(action, (SetField, PushVlan, PopVlan)):
                headers = action.apply(headers)
            elif isinstance(action, GroupAction):
                group = self.groups.get(action.group_id)
                chosen = group.select_buckets(headers, port_up=self.port_up)
                for index, bucket in chosen:
                    result.group_hits.append((group, index))
                    headers = self._apply_actions(
                        bucket.actions, headers, in_port, result, depth + 1
                    )
            else:  # pragma: no cover - defensive
                raise OpenFlowError(f"unknown action {action!r}")
        return headers

    def _emit(self, port: int, in_port: int, result: PipelineResult) -> None:
        if port == PORT_IN_PORT:
            result.out_ports.append(in_port)
            return
        if port == in_port:
            # OpenFlow suppresses output to the ingress port unless the
            # reserved IN_PORT port is used explicitly.
            return
        result.out_ports.append(port)

    def flood_ports(self, in_port: int) -> List[int]:
        """Live egress ports a FLOOD from ``in_port`` replicates to
        (every up, connected port except the ingress), in port order.
        Engines use this to expand reserved port numbers in packet-outs.
        """
        return [
            number
            for number, port in sorted(self.switch.ports.items())
            if number != in_port and port.live
        ]

    def expand_reserved(self, in_port: int, ports: List[int]) -> List[int]:
        """Expand reserved port numbers (FLOOD) in a packet-out list."""
        expanded: List[int] = []
        for number in ports:
            if number == PORT_FLOOD:
                expanded.extend(self.flood_ports(in_port))
            else:
                expanded.append(number)
        return expanded

    def port_up(self, number: int) -> bool:
        """Whether port ``number`` exists and is live (fast-failover
        watch ports, and the analyzer's read-only walk)."""
        port = self.switch.ports.get(number)
        return port is not None and port.live

    # ------------------------------------------------------------------
    # Table management helpers
    # ------------------------------------------------------------------
    def table(self, table_id: int = 0) -> FlowTable:
        if not 0 <= table_id < len(self.tables):
            raise OpenFlowError(
                f"no table {table_id} on {self.switch.name} "
                f"(pipeline has {len(self.tables)})"
            )
        return self.tables[table_id]

    def install(
        self,
        match: Match,
        instructions: Tuple[Instruction, ...],
        priority: int = 0,
        table_id: int = 0,
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
        cookie: int = 0,
        now: float = 0.0,
        check_overlap: bool = False,
    ) -> FlowEntry:
        """Convenience wrapper adding one entry to a table."""
        entry = FlowEntry(
            match=match,
            priority=priority,
            instructions=instructions,
            idle_timeout=idle_timeout,
            hard_timeout=hard_timeout,
            cookie=cookie,
            install_time=now,
        )
        return self.table(table_id).add(entry, check_overlap=check_overlap)

    def expire(self, now: float) -> List[Tuple[int, FlowEntry, str]]:
        """Expire timed-out entries in every table; returns
        (table_id, entry, reason) triples for FlowRemoved messages."""
        expired: List[Tuple[int, FlowEntry, str]] = []
        for table in self.tables:
            for entry, reason in table.expire(now):
                expired.append((table.table_id, entry, reason))
        return expired

    @property
    def total_entries(self) -> int:
        return sum(len(t) for t in self.tables)

    def clear(self) -> None:
        for table in self.tables:
            table.clear()
        self.groups.clear()
        self.meters.clear()

    def __repr__(self) -> str:
        return (
            f"<OpenFlowPipeline {self.switch.name} tables={len(self.tables)} "
            f"entries={self.total_entries} groups={len(self.groups)} "
            f"meters={len(self.meters)}>"
        )


def attach_pipeline(
    switch: "Switch", num_tables: int = 2, table_size: Optional[int] = None
) -> OpenFlowPipeline:
    """Create and attach a pipeline to a switch (idempotent per switch)."""
    if switch.pipeline is None:
        switch.pipeline = OpenFlowPipeline(
            switch, num_tables=num_tables, table_size=table_size
        )
    return switch.pipeline
