"""Exporting run results: CSV flow records, JSON reports, text summary.

The data any downstream analysis (pandas, gnuplot, spreadsheets) wants
from a run, without adding dependencies: per-flow records as CSV, the
whole run as a JSON document, and a human-readable one-screen summary.
"""

from __future__ import annotations

import csv
import hashlib
import json
from typing import IO, TYPE_CHECKING, Union

from ..flowsim.flow import Flow

if TYPE_CHECKING:  # pragma: no cover - avoids a core<->stats import cycle
    from ..core.results import RunResult

#: Columns of the per-flow CSV, in order.
FLOW_COLUMNS = (
    "flow_id",
    "src",
    "dst",
    "start_time",
    "end_time",
    "state",
    "terminal",
    "demand_bps",
    "size_bytes",
    "duration_s",
    "elastic",
    "bytes_sent",
    "bytes_delivered",
    "bytes_dropped",
    "fct_s",
    "goodput_bps",
    "reroutes",
)


def flow_row(flow: Flow) -> dict:
    """One CSV row for a flow."""
    fct = flow.flow_completion_time
    goodput = None
    if fct and fct > 0:
        goodput = flow.bytes_delivered * 8.0 / fct
    return {
        "flow_id": flow.flow_id,
        "src": flow.src,
        "dst": flow.dst,
        "start_time": flow.start_time,
        "end_time": flow.end_time,
        "state": flow.state.value,
        "terminal": flow.route.terminal.value if flow.route else None,
        "demand_bps": flow.demand_bps,
        "size_bytes": flow.size_bytes,
        "duration_s": flow.duration_s,
        "elastic": flow.elastic,
        "bytes_sent": round(flow.bytes_sent, 3),
        "bytes_delivered": round(flow.bytes_delivered, 3),
        "bytes_dropped": round(flow.bytes_dropped, 3),
        "fct_s": round(fct, 9) if fct is not None else None,
        "goodput_bps": round(goodput, 3) if goodput is not None else None,
        "reroutes": flow.reroutes,
    }


def flows_to_csv(result: "RunResult", destination: Union[str, IO[str]]) -> int:
    """Write every flow of a run as CSV; returns the row count."""
    own = isinstance(destination, str)
    handle = open(destination, "w", newline="") if own else destination
    try:
        writer = csv.DictWriter(handle, fieldnames=FLOW_COLUMNS)
        writer.writeheader()
        count = 0
        for flow in result.flows:
            writer.writerow(flow_row(flow))
            count += 1
        return count
    finally:
        if own:
            handle.close()


def result_to_dict(result: "RunResult") -> dict:
    """The whole run as a JSON-compatible document."""
    return {
        "wall_time_s": result.wall_time_s,
        "sim_time_s": result.sim_time_s,
        "events": result.events,
        "rule_count": result.rule_count,
        "engine_summary": dict(result.engine_summary),
        "engine_stats": dict(result.engine_stats),
        "fct_summary": result.fct_summary(),
        "fairness": result.fairness(),
        "goodput_bps": result.goodput_bps(),
        "delivered_fraction": result.delivered_fraction,
        "link_max_utilization": {
            f"{node}:{port}": value
            for (node, port), value in sorted(result.link_max_utilization.items())
        },
        "metrics": dict(result.metrics),
        "notes": list(result.notes),
        "flows": [flow_row(flow) for flow in result.flows],
    }


def _without_solver_counters(stats: dict) -> dict:
    """``engine_stats`` minus every (possibly nested) ``"solver"`` block."""
    return {
        key: _without_solver_counters(value) if isinstance(value, dict) else value
        for key, value in stats.items()
        if key != "solver"
    }


def run_digest(result: "RunResult") -> str:
    """A stable content digest of a run's results.

    SHA-256 over the canonical JSON encoding (sorted keys, no
    whitespace) of :func:`result_to_dict` with the wall-clock field
    removed — the only nondeterministic top-level field.  Two runs of
    the same scenario must produce the same digest; the golden-scenario
    regression tests and ``repro run --check-digest`` gate on this.
    Profiling (``profile: true``) embeds wall time in ``engine_stats``
    and breaks digest stability; leave it off for digested runs.
    Wire-control metrics (``wire.*``) are wall-clock measurements of
    the external controller and are likewise excluded, so a wire run
    that reproduces an in-proc run's behavior hashes identically.
    Kernel queue-health metrics (``sim.queue_*`` and
    ``sim.pending_raw``) describe the pending-set *implementation* —
    compaction cadence, tombstone counts — not simulated behavior, so
    they are excluded too: runs that differ only in compaction tuning
    hash identically.
    The fair-share solver's work counters (``engine_stats[...]["solver"]``
    — ``resolves``, ``component_solves``, ``flows_resolved``,
    ``rates_moved`` — also
    nested under ``background_engine`` for hybrid runs, and the
    ``engine.*.solver.*`` metrics flattened from them) likewise describe
    the component *index* — how tightly it scopes a re-solve — not the
    rates it produces, so they are excluded: the digest covers simulated
    behavior only.  They stay in ``RunResult.engine_stats``, the run
    JSON and the metrics.
    """
    doc = result_to_dict(result)
    doc.pop("wall_time_s", None)
    doc["engine_stats"] = _without_solver_counters(doc["engine_stats"])
    doc["metrics"] = {
        key: value
        for key, value in doc["metrics"].items()
        if not (
            key.startswith("wire.")
            or key.startswith("sim.queue_")
            or key == "sim.pending_raw"
            or (key.startswith("engine.") and ".solver." in key)
        )
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_to_json(
    result: "RunResult", destination: Union[str, IO[str]], indent: int = 2
) -> None:
    """Write the run document as JSON."""
    doc = result_to_dict(result)
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            json.dump(doc, handle, indent=indent)
    else:
        json.dump(doc, destination, indent=indent)


def summary_text(result: "RunResult") -> str:
    """A one-screen human-readable run summary."""
    row = result.row()
    fct = result.fct_summary()
    lines = [
        "run summary",
        "-----------",
        f"simulated time     : {row['sim_time_s']} s",
        f"wall time          : {row['wall_time_s']} s "
        f"({row['events_per_s']} events/s)",
        f"events             : {row['events']}",
        f"flows              : {row['flows']} "
        f"({row['completed']} completed, "
        f"{row['delivered_frac']:.1%} delivered)",
        f"rules installed    : {row['rules']}",
        f"aggregate goodput  : {row['goodput_gbps']} Gb/s",
        f"fairness (Jain)    : {result.fairness():.3f}",
        f"FCT mean/p99       : {fct['mean']:.4g} s / {fct['p99']:.4g} s",
    ]
    if result.notes:
        lines.append("notes              : " + "; ".join(result.notes))
    return "\n".join(lines)
