"""The sharded parallel runtime: coordinator + worker processes.

``run_sharded`` partitions a scenario's topology into k domains
(:mod:`repro.shard.partition`), runs each domain in a forked worker
process with its own kernel, clock, and incremental solver, and
synchronizes conservatively at quantum boundaries.  The quantum is the
cross-shard lookahead: the minimum propagation delay over cut links
(floored at :data:`MIN_QUANTUM_S`); with no cut links the whole
horizon is a single quantum and the shards never exchange at all.

At each boundary every worker exports a *demand vector* — per link
direction, the total offered demand and fairness weight of its own
active flows — and imports the aggregate of every other shard's vector
as weighted external demands through the flow engine's
``set_external_demand`` seam (the same coupling the hybrid engine uses
for its packet foreground).  Weighted unpinned demands share max-min
fairly with local flows, so two shards contending for one link settle
at the fair split instead of oscillating between all and nothing.

Determinism: every worker builds the *complete* scenario — full
topology, full policy install, and the full deterministic flow
sequence (ids included) — then submits only the flows whose source
host its shard owns.  A flow therefore has the same id, headers, and
route no matter how many shards the run uses.

Fault tolerance: the coordinator records each round's external-demand
decisions per worker.  A crashed worker is respawned and
deterministically replays the recorded rounds without renegotiating
(or fast-forwards from its last quantum-boundary checkpoint when
``shards.checkpoint_dir`` is set), then rejoins the barrier protocol
live.
"""

from __future__ import annotations

import copy
import os
import tempfile
import time as _time
from typing import Dict, List, Optional, Tuple

from ..core.config import HorseConfig
from ..core.results import RunResult
from ..errors import ExperimentError
from ..flowsim.flow import Flow, FlowRoute
from ..runtime.pool import process_context
from ..runtime.scenario import (
    build_config,
    build_scenario,
    build_topology,
    reset_id_counters,
)
from ..runtime.schema import ensure_v1
from .partition import ShardPlan, partition_topology

#: Floor for a derived synchronization quantum.  Link propagation
#: delays are microseconds; synchronizing every microsecond would mean
#: millions of barriers, and the flow abstraction's dynamics are far
#: coarser than that.  An explicit ``shards.quantum_s`` overrides.
MIN_QUANTUM_S = 0.05

#: Respawn budget per shard before the run is declared failed.
MAX_RESTARTS = 3

#: Exit code a fault-injected worker dies with (see :data:`FAULT_ENV`);
#: mirrors the sweep pool's crash smoke.
FAULT_EXIT_CODE = 47

#: Crash-injection hook for the restart smoke test:
#: ``REPRO_SHARD_FAULT="<shard>:<round>"`` hard-kills that shard at the
#: start of that round, once — a marker file (path in
#: ``REPRO_SHARD_FAULT_MARKER``, or derived from the coordinator pid)
#: records that the fault already fired so the respawn survives it.
FAULT_ENV = "REPRO_SHARD_FAULT"
FAULT_MARKER_ENV = "REPRO_SHARD_FAULT_MARKER"


def derive_quantum(plan: ShardPlan, override: Optional[float]) -> Optional[float]:
    """The synchronization quantum for a plan: the explicit override,
    else the lookahead floored at :data:`MIN_QUANTUM_S`, else None
    (no cut links — one quantum covers the horizon)."""
    if override is not None:
        return override
    if plan.lookahead_s is None:
        return None
    return max(plan.lookahead_s, MIN_QUANTUM_S)


def quantum_boundaries(until: float, quantum: Optional[float]) -> List[float]:
    """Strictly increasing sync points ending exactly at ``until``.

    Points are computed as multiples of the quantum (not accumulated)
    so every worker derives bit-identical boundaries.
    """
    if quantum is None or quantum >= until:
        return [until]
    boundaries = []
    step = 1
    while True:
        point = step * quantum
        if point >= until:
            break
        boundaries.append(point)
        step += 1
    boundaries.append(until)
    return boundaries


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _light_flow(flow: Flow) -> Flow:
    """A picklable copy: the route is stripped of object graphs
    (directions, table entries) but keeps the terminal and hop record
    the exporters and result summaries read."""
    clone = copy.copy(flow)
    route = flow.route
    if route is not None:
        clone.route = FlowRoute(
            directions=[],
            switch_hops=list(route.switch_hops),
            terminal=route.terminal,
            meter_ids=list(route.meter_ids),
            punted=route.punted,
        )
    return clone


def _demand_vector(engine) -> Dict[Tuple, List[float]]:
    """direction key -> [total demand bps, total fairness weight] over
    this engine's active flows."""
    vector: Dict[Tuple, List[float]] = {}
    for flow in engine.active_flows:
        route = flow.route
        if route is None:
            continue
        for direction in route.directions:
            entry = vector.get(direction.key)
            if entry is None:
                vector[direction.key] = [flow.demand_bps, flow.weight]
            else:
                entry[0] += flow.demand_bps
                entry[1] += flow.weight
    return vector


def _apply_externals(engine, externals, direction_index, registered) -> None:
    """Install one round's aggregate remote demands and re-solve."""
    incoming = set()
    for key, (demand, weight) in externals.items():
        direction = direction_index.get(tuple(key))
        if direction is None or demand <= 0:
            continue
        incoming.add(tuple(key))
        engine.set_external_demand(
            ("shard", tuple(key)), demand, [direction], weight=max(weight, 1e-9)
        )
    for stale in registered - incoming:
        engine.clear_external_demand(("shard", stale))
    registered.clear()
    registered.update(incoming)
    engine.recompute_rates()


def _fault_marker_path() -> str:
    explicit = os.environ.get(FAULT_MARKER_ENV)
    if explicit:
        return explicit
    # Workers share the coordinator as parent, so its pid names one
    # marker per run for original and respawned processes alike.
    return os.path.join(
        tempfile.gettempdir(), f"repro-shard-fault-{os.getppid()}"
    )


def _maybe_fault(shard: int, round_index: int) -> None:
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    try:
        target_shard, target_round = (int(x) for x in spec.split(":"))
    except ValueError:
        raise ExperimentError(
            f"{FAULT_ENV} must be '<shard>:<round>', got {spec!r}"
        ) from None
    if shard != target_shard or round_index != target_round:
        return
    marker = _fault_marker_path()
    if os.path.exists(marker):
        return  # already crashed once; the respawn proceeds
    with open(marker, "w") as handle:
        handle.write(spec)
    os._exit(FAULT_EXIT_CODE)


def _suffix_paths(scenario: dict, shard: int) -> dict:
    """Per-worker copies of file-writing knobs so k workers never race
    on one output path."""
    scenario = copy.deepcopy(scenario)
    telemetry = scenario.get("telemetry") or {}
    if telemetry.get("trace_path"):
        telemetry["trace_path"] = f"{telemetry['trace_path']}.shard{shard}"
    checkpoint = scenario.get("checkpoint") or {}
    if checkpoint.get("path"):
        checkpoint["path"] = f"{checkpoint['path']}.shard{shard}"
    return scenario


def _worker_checkpoint_path(checkpoint_dir: str, shard: int) -> str:
    return os.path.join(checkpoint_dir, f"shard-{shard}.ckpt")


def _write_boundary_checkpoint(horse, checkpoint_dir, shard, round_index):
    path = _worker_checkpoint_path(checkpoint_dir, shard)
    horse.checkpoint(path)
    # Sidecar pins which exchange round the snapshot has applied, so a
    # respawn knows where to resume the replay.
    with open(path + ".round", "w") as handle:
        handle.write(str(round_index))


def _try_restore(checkpoint_dir: str, shard: int, history: List[dict]):
    """Fast-forward a respawned worker from its last boundary
    checkpoint.  Returns ``(horse, start_round)`` or None when there is
    no usable checkpoint (the caller replays from t=0 instead)."""
    from ..core.simulator import Horse

    path = _worker_checkpoint_path(checkpoint_dir, shard)
    if not (os.path.exists(path) and os.path.exists(path + ".round")):
        return None
    try:
        with open(path + ".round") as handle:
            checkpointed_round = int(handle.read().strip())
        if not 0 <= checkpointed_round < len(history):
            return None
        horse = Horse.restore(path)
    except Exception:  # noqa: BLE001 - any corrupt checkpoint -> full replay
        return None
    return horse, checkpointed_round + 1


def _shard_worker(conn, payload: dict) -> None:
    """Worker process entry: simulate one domain, speak the barrier
    protocol on ``conn``, ship the shard result back at the end."""
    try:
        result = _shard_worker_run(conn, payload)
        conn.send(("result", result))
    except BaseException as exc:  # noqa: BLE001 - forwarded to coordinator
        import traceback

        try:
            conn.send(("error", f"{exc}\n{traceback.format_exc()}"))
        except OSError:
            pass
        raise
    finally:
        conn.close()


def _shard_worker_run(conn, payload: dict) -> dict:
    shard: int = payload["shard"]
    scenario = _suffix_paths(payload["scenario"], shard)
    assignment: Dict[str, int] = payload["assignment"]
    boundaries: List[float] = payload["boundaries"]
    history: List[dict] = payload["history"]
    checkpoint_dir: Optional[str] = payload["checkpoint_dir"]

    reset_id_counters()
    restored = None
    if checkpoint_dir and payload["respawned"]:
        restored = _try_restore(checkpoint_dir, shard, history)

    generated = [0]
    submitted = [0]

    def owns(flow: Flow) -> bool:
        generated[0] += 1
        mine = assignment.get(flow.src) == shard
        if mine:
            submitted[0] += 1
        return mine

    if restored is not None:
        horse, start_round = restored
        generated[0] = payload["generated"]
        submitted[0] = payload["submitted"]
    else:
        horse, _count = build_scenario(scenario, flow_filter=owns)
        horse.start_control_plane()
        start_round = 0

    engine = horse.engine
    direction_index = {
        direction.key: direction
        for link in horse.topology.links
        for direction in link.directions
    }
    registered: set = set()
    if restored is not None and start_round > 0:
        # The snapshot already carries the last applied round's external
        # demands; re-derive their keys so stale ones get cleared.
        for key, (demand, _weight) in history[start_round - 1].items():
            if demand > 0 and tuple(key) in direction_index:
                registered.add(tuple(key))
    telemetry = horse.telemetry

    for round_index, boundary in enumerate(boundaries):
        if round_index < start_round:
            continue
        _maybe_fault(shard, round_index)
        horse.sim.run(until=boundary)
        if round_index == len(boundaries) - 1:
            break
        if round_index < len(history):
            # Crash replay: the coordinator already decided this round.
            externals = history[round_index]
        else:
            vector = _demand_vector(engine)
            conn.send(("sync", round_index, vector, submitted[0], generated[0]))
            if telemetry.tracing_enabled:
                telemetry.trace.emit(
                    "shard.sync",
                    shard=shard,
                    round=round_index,
                    boundary=boundary,
                    exported=len(vector),
                )
            kind, got_round, externals = conn.recv()
            if kind != "externals" or got_round != round_index:
                raise ExperimentError(
                    f"shard {shard}: barrier protocol error "
                    f"(got {kind!r} for round {got_round})"
                )
        _apply_externals(engine, externals, direction_index, registered)
        if telemetry.tracing_enabled:
            telemetry.trace.emit(
                "shard.exchange",
                shard=shard,
                round=round_index,
                imported=len(externals),
            )
        if checkpoint_dir:
            _write_boundary_checkpoint(horse, checkpoint_dir, shard, round_index)
    engine.finish()
    return {
        "shard": shard,
        "events": horse.sim.fired_count,
        "sim_time_s": horse.sim.now,
        "generated": generated[0],
        "submitted": submitted[0],
        "flows": [_light_flow(f) for f in engine.flows.values()],
        "engine_summary": engine.summary(),
        "engine_stats": engine.engine_stats(),
        "rule_count": horse.controller.rule_count(),
        "link_max_utilization": horse.collector.max_link_utilization(),
        "link_mean_utilization": horse.collector.mean_link_utilization(),
        "notes": list(horse.compiled.notes) if horse.compiled else [],
    }


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class _WorkerHandle:
    """One shard's process + pipe + replay history."""

    def __init__(self, context, base_payload: dict) -> None:
        self.context = context
        self.base_payload = base_payload
        self.history: List[dict] = []
        self.restarts = 0
        self.process = None
        self.conn = None

    @property
    def shard(self) -> int:
        return self.base_payload["shard"]

    def spawn(self, respawned: bool = False) -> None:
        parent_conn, child_conn = self.context.Pipe()
        payload = dict(self.base_payload)
        payload["history"] = list(self.history)
        payload["respawned"] = respawned
        self.process = self.context.Process(
            target=_shard_worker, args=(child_conn, payload), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def respawn(self) -> None:
        self.restarts += 1
        if self.restarts > MAX_RESTARTS:
            raise ExperimentError(
                f"shard {self.shard} crashed more than {MAX_RESTARTS} times; "
                "giving up"
            )
        if self.conn is not None:
            self.conn.close()
        self.spawn(respawned=True)

    def recv(self):
        """Receive one message, respawning through worker crashes."""
        while True:
            try:
                if self.conn.poll(0.25):
                    message = self.conn.recv()
                    if message[0] == "error":
                        raise ExperimentError(
                            f"shard {self.shard} failed:\n{message[1]}"
                        )
                    return message
                if not self.alive():
                    # Died without a message: crash. Replay and rejoin.
                    self.respawn()
            except (EOFError, OSError):
                self.respawn()

    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError):
            # The crash surfaces at the next recv; history already
            # carries this round for the replay.
            pass

    def shutdown(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)


def _merge_summaries(summaries: List[dict]) -> dict:
    merged: dict = {}
    for summary in summaries:
        for key, value in summary.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                merged[key] = merged.get(key, 0) + value
            else:
                merged.setdefault(key, value)
    return merged


def _merge_utilization(maps: List[dict]) -> dict:
    """Per-direction max across shard views.  Every shard simulates the
    full topology (own flows + remote aggregates), so each map covers
    every link; the highest reading is the best-informed one."""
    merged: dict = {}
    for mapping in maps:
        for key, value in mapping.items():
            if key not in merged or value > merged[key]:
                merged[key] = value
    return merged


def run_sharded(scenario: dict) -> Tuple[RunResult, int]:
    """Run a scenario on the sharded parallel runtime.

    Returns ``(result, submitted_flow_count)``.  The scenario must
    declare ``"shards"`` with count > 1 and a finite ``"until"``
    horizon (open-ended draining has no conservative termination
    criterion across processes).
    """
    scenario = ensure_v1(scenario, warn=False)
    config: HorseConfig = build_config(scenario)
    count = config.shard.count
    if count < 2:
        raise ExperimentError("run_sharded needs shards.count > 1")
    until = scenario.get("until")
    if until is None:
        raise ExperimentError(
            'sharded runs need a finite horizon: set "until" in the scenario'
        )
    topology, fabric = build_topology(scenario.get("topology", {}))
    if fabric is not None:
        raise ExperimentError("sharded runs do not support IXP-fabric scenarios yet")
    if count > len(topology.switches):
        raise ExperimentError(
            f"cannot split {len(topology.switches)} switch(es) into {count} shards"
        )
    plan = partition_topology(topology, count, config.shard.partition)
    quantum = derive_quantum(plan, config.shard.quantum_s)
    boundaries = quantum_boundaries(float(until), quantum)
    checkpoint_dir = config.shard.checkpoint_dir
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)

    context = process_context()
    workers = [
        _WorkerHandle(
            context,
            {
                "shard": shard,
                "scenario": scenario,
                "assignment": plan.assignment,
                "boundaries": boundaries,
                "checkpoint_dir": checkpoint_dir,
                "generated": 0,
                "submitted": 0,
            },
        )
        for shard in range(count)
    ]
    wall_start = _time.perf_counter()  # repro: noqa[DET001] - reported wall time; never feeds sim state
    results: List[dict] = []
    try:
        for worker in workers:
            worker.spawn()
        for round_index in range(len(boundaries) - 1):
            vectors: Dict[int, dict] = {}
            for worker in workers:
                kind, got_round, vector, n_submitted, n_generated = worker.recv()
                if kind != "sync" or got_round != round_index:
                    raise ExperimentError(
                        f"shard {worker.shard}: expected sync for round "
                        f"{round_index}, got {kind!r}/{got_round}"
                    )
                vectors[worker.shard] = vector
                # Remembered so a checkpoint-restored respawn (which
                # skips traffic generation) still reports its counts.
                worker.base_payload["submitted"] = n_submitted
                worker.base_payload["generated"] = n_generated
            for worker in workers:
                externals: Dict[Tuple, List[float]] = {}
                for shard, vector in vectors.items():
                    if shard == worker.shard:
                        continue
                    for key, (demand, weight) in vector.items():
                        entry = externals.get(key)
                        if entry is None:
                            externals[key] = [demand, weight]
                        else:
                            entry[0] += demand
                            entry[1] += weight
                # Append before sending: whether the worker crashes just
                # before or after receiving this round, the replay sees
                # the same decision.
                worker.history.append(externals)
                worker.send(("externals", round_index, externals))
        for worker in workers:
            kind, payload = worker.recv()
            if kind != "result":
                raise ExperimentError(
                    f"shard {worker.shard}: expected result, got {kind!r}"
                )
            results.append(payload)
    finally:
        for worker in workers:
            worker.shutdown()
    wall = _time.perf_counter() - wall_start  # repro: noqa[DET001] - reported wall time; never feeds sim state

    results.sort(key=lambda r: r["shard"])
    flows = sorted(
        (flow for payload in results for flow in payload["flows"]),
        key=lambda f: f.flow_id,
    )
    submitted = sum(payload["submitted"] for payload in results)
    result = RunResult(
        wall_time_s=wall,
        sim_time_s=max(payload["sim_time_s"] for payload in results),
        events=sum(payload["events"] for payload in results),
        engine_summary=_merge_summaries(
            [payload["engine_summary"] for payload in results]
        ),
        flows=flows,
        rule_count=results[0]["rule_count"],
        engine_stats={
            "engine": "sharded",
            "shards": count,
            "quantum_s": quantum,
            "rounds": len(boundaries) - 1,
            "restarts": sum(worker.restarts for worker in workers),
            "partition": plan.summary(),
            "per_shard": [payload["engine_stats"] for payload in results],
        },
        link_max_utilization=_merge_utilization(
            [payload["link_max_utilization"] for payload in results]
        ),
        link_mean_utilization=_merge_utilization(
            [payload["link_mean_utilization"] for payload in results]
        ),
        monitor_samples=[],
        metrics={},
        notes=results[0]["notes"],
    )
    return result, submitted
