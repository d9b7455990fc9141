"""Read-only symbolic walk of one switch's OpenFlow pipeline.

Mirrors :meth:`repro.openflow.switch.OpenFlowPipeline.process` without
touching any counter (table lookup stats, entry counters, bucket bytes)
and — crucially for verification — without collapsing nondeterminism: a
SELECT group hashes live traffic onto *one* bucket, but the analyzer
must prove every bucket safe, so the walk forks into one execution
state per eligible bucket and returns all terminal states.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from ..openflow.action import (
    Action,
    ApplyActions,
    Drop,
    Flood,
    GotoTable,
    GroupAction,
    MeterInstruction,
    Output,
    PORT_ALL,
    PORT_CONTROLLER,
    PORT_FLOOD,
    PORT_IN_PORT,
    PopVlan,
    PushVlan,
    SetField,
    ToController,
)
from ..openflow.flowtable import FlowEntry, FlowTable
from ..openflow.group import Bucket, Group, GroupType
from ..openflow.headers import HeaderFields
from ..openflow.switch import OpenFlowPipeline

#: Mirror of the pipeline's group-nesting limit.
_MAX_GROUP_DEPTH = 8


@dataclass(frozen=True)
class WalkState:
    """One terminal execution state of a symbolic pipeline walk.

    Attributes
    ----------
    outputs:
        ``(port_number, headers_at_emit)`` pairs, in emission order.
    matched:
        ``(table_id, entry)`` pairs that matched along this state.
    dropped / to_controller:
        Explicit Drop / ToController actions fired.
    miss:
        True when no entry matched at all (OpenFlow 1.3 implicit drop).
    missed_table:
        The table whose lookup found no entry, when the walk ended on a
        miss (set even after earlier tables matched via GotoTable).
    dead_group:
        A fast-failover group had no live bucket (traffic vanishes).
    suppressed:
        At least one Output was dropped by OpenFlow's in-port output
        suppression (the rule tried to send traffic back where it came
        from without naming IN_PORT).  A state with no outputs but
        ``suppressed`` set is a hairpin, not a blackhole.
    """

    outputs: Tuple[Tuple[int, HeaderFields], ...] = ()
    matched: Tuple[Tuple[int, FlowEntry], ...] = ()
    dropped: bool = False
    to_controller: bool = False
    miss: bool = False
    missed_table: Optional[int] = None
    dead_group: bool = False
    suppressed: bool = False

    @property
    def forwards(self) -> bool:
        return bool(self.outputs) and not self.dropped


@dataclass
class _Frame:
    """Mutable in-flight state while walking the tables."""

    headers: HeaderFields
    table_id: Optional[int] = 0
    outputs: List[Tuple[int, HeaderFields]] = field(default_factory=list)
    matched: List[Tuple[int, FlowEntry]] = field(default_factory=list)
    dropped: bool = False
    to_controller: bool = False
    missed_table: Optional[int] = None
    dead_group: bool = False
    suppressed: bool = False

    def fork(self) -> "_Frame":
        return _Frame(
            headers=self.headers,
            table_id=self.table_id,
            outputs=list(self.outputs),
            matched=list(self.matched),
            dropped=self.dropped,
            to_controller=self.to_controller,
            missed_table=self.missed_table,
            dead_group=self.dead_group,
            suppressed=self.suppressed,
        )

    def freeze(self) -> WalkState:
        return WalkState(
            outputs=tuple(self.outputs),
            matched=tuple(self.matched),
            dropped=self.dropped,
            to_controller=self.to_controller,
            miss=not self.matched,
            missed_table=self.missed_table,
            dead_group=self.dead_group,
            suppressed=self.suppressed,
        )


def _lookup(table: FlowTable, headers: HeaderFields, in_port: int) -> Optional[FlowEntry]:
    """Highest-priority matching entry, without counter updates."""
    for entry in table:
        if entry.match.matches(headers, in_port):
            return entry
    return None


def _emit(frame: _Frame, port: int, in_port: int, pipeline: OpenFlowPipeline) -> None:
    if port == PORT_IN_PORT:
        frame.outputs.append((in_port, frame.headers))
        return
    if port in (PORT_FLOOD, PORT_ALL):
        for number in pipeline.flood_ports(in_port):
            frame.outputs.append((number, frame.headers))
        return
    if port == PORT_CONTROLLER:
        frame.to_controller = True
        return
    if port == in_port:
        # The pipeline suppresses output to the ingress port unless the
        # reserved IN_PORT port is named explicitly.
        frame.suppressed = True
        return
    frame.outputs.append((port, frame.headers))


def _eligible_buckets(
    pipeline: OpenFlowPipeline, group: Group
) -> List[Tuple[int, Bucket]]:
    """The bucket set a walk must explore; forks where traffic could."""
    if group.group_type is GroupType.ALL:
        return list(enumerate(group.buckets))
    if group.group_type is GroupType.INDIRECT:
        return [(0, group.buckets[0])]
    if group.group_type is GroupType.SELECT:
        # Any weighted bucket may carry some flow: fork into each.
        return [(i, b) for i, b in enumerate(group.buckets) if b.weight > 0]
    # FAST_FAILOVER: the first live bucket wins deterministically.
    for i, bucket in enumerate(group.buckets):
        if bucket.watch_port is None or pipeline.port_up(bucket.watch_port):
            return [(i, bucket)]
    return []


def _apply_actions(
    pipeline: OpenFlowPipeline,
    actions: Tuple[Action, ...],
    frames: List[_Frame],
    in_port: int,
    depth: int,
) -> List[_Frame]:
    """Apply an action list to every frame, forking on SELECT groups."""
    if depth > _MAX_GROUP_DEPTH:
        # Mirror the pipeline's nesting guard without raising: a
        # pathological group cycle shows up as vanished traffic.
        for frame in frames:
            frame.dead_group = True
        return frames
    for action in actions:
        if isinstance(action, Output):
            for frame in frames:
                _emit(frame, action.port, in_port, pipeline)
        elif isinstance(action, Flood):
            for frame in frames:
                for number in pipeline.flood_ports(in_port):
                    frame.outputs.append((number, frame.headers))
        elif isinstance(action, Drop):
            for frame in frames:
                frame.dropped = True
        elif isinstance(action, ToController):
            for frame in frames:
                frame.to_controller = True
        elif isinstance(action, (SetField, PushVlan, PopVlan)):
            for frame in frames:
                frame.headers = action.apply(frame.headers)
        elif isinstance(action, GroupAction):
            if action.group_id not in pipeline.groups:
                for frame in frames:
                    frame.dead_group = True
                continue
            group = pipeline.groups.get(action.group_id)
            next_frames: List[_Frame] = []
            for frame in frames:
                buckets = _eligible_buckets(pipeline, group)
                if not buckets:
                    frame.dead_group = True
                    next_frames.append(frame)
                    continue
                if group.group_type is GroupType.SELECT and len(buckets) > 1:
                    forks = [frame] + [frame.fork() for _ in buckets[1:]]
                    for fork, (_, bucket) in zip(forks, buckets):
                        next_frames.extend(
                            _apply_actions(
                                pipeline, bucket.actions, [fork], in_port, depth + 1
                            )
                        )
                else:
                    # ALL / INDIRECT / FF: buckets run sequentially in
                    # one state, headers threading through, exactly as
                    # the live pipeline executes them.
                    current = [frame]
                    for _, bucket in buckets:
                        current = _apply_actions(
                            pipeline, bucket.actions, current, in_port, depth + 1
                        )
                    next_frames.extend(current)
            frames = next_frames
    return frames


def walk_pipeline(
    pipeline: OpenFlowPipeline, headers: HeaderFields, in_port: int
) -> List[WalkState]:
    """All terminal execution states for one (headers, in_port) input.

    The walk never mutates pipeline state; it is safe to run mid-
    simulation or from tests without perturbing statistics.
    """
    terminal: List[WalkState] = []
    pending: List[_Frame] = [_Frame(headers=headers)]
    while pending:
        frame = pending.pop()
        table_id = frame.table_id
        if table_id is None or table_id >= len(pipeline.tables):
            terminal.append(frame.freeze())
            continue
        entry = _lookup(pipeline.tables[table_id], frame.headers, in_port)
        if entry is None:
            frame.table_id = None
            frame.missed_table = table_id
            terminal.append(frame.freeze())
            continue
        frame.matched.append((table_id, entry))
        next_table: Optional[int] = None
        frames = [frame]
        for instruction in entry.instructions:
            if isinstance(instruction, MeterInstruction):
                continue  # rate conditioning never changes reachability
            if isinstance(instruction, ApplyActions):
                frames = _apply_actions(
                    pipeline, instruction.actions, frames, in_port, depth=0
                )
            elif isinstance(instruction, GotoTable):
                if instruction.table_id > table_id:
                    next_table = instruction.table_id
        for out in frames:
            out.table_id = next_table
            if next_table is None:
                terminal.append(out.freeze())
            else:
                pending.append(out)
    # Explicit drop clears emissions, matching PipelineResult semantics.
    cleaned = []
    for state in terminal:
        if state.dropped and state.outputs:
            cleaned.append(replace(state, outputs=()))
        else:
            cleaned.append(state)
    return cleaned
