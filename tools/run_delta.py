"""When a run digest moves, say by how much.

    python3 tools/run_delta.py --parent ../parent --workload ixp_replay \\
        [--change .] [--seed 11] [--tolerance 1e-9]

Runs one horsebench workload once from each checkout (a child process
per side, the checkout's own ``benchmarks/horsebench/workloads.py``
building it, so both sides get the same flows under the same ids) and
compares the two runs flow by flow: the relative difference in
delivered bytes, completion time and final rate of every flow that
differs, then the maxima, the number of flows whose lifecycle events
(arrival, completion, re-route, ...) fall at different places in the
run's event sequence, and the run counters side by side.  Exits 1 when
a maximum exceeds ``--tolerance``.

A digest is a hash: it says *that* two runs differ, not whether the
difference is a rounding change in the last bits or a different
simulation.  This answers the second question.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIELDS = ("bytes_delivered", "end_time", "rate_bps")


def child(checkout: str, workload: str, seed: int) -> dict:
    """Run ``workload`` from ``checkout`` in this process, as
    ``benchmarks/horsebench/child.py`` does, and describe its flows."""
    sys.path[:0] = [checkout, os.path.join(checkout, "src")]
    from benchmarks.horsebench.workloads import WORKLOADS
    from repro.runtime.scenario import reset_id_counters
    from repro.stats.export import run_digest

    reset_id_counters()
    job = WORKLOADS[workload](seed)
    job.build_topology()
    job.generate_traffic()
    job.construct()
    order: List[List] = []
    job.horse.engine.observers.append(
        lambda name, flow: order.append([name, flow.flow_id])
    )
    job.submit()
    result = job.horse.run(until=job.until)
    return {
        "flows": {
            str(flow.flow_id): [getattr(flow, name) for name in FIELDS]
            for flow in job.flows
        },
        "order": order,
        "run_digest": run_digest(result),
        "counters": {
            "events": result.events,
            **result.engine_stats.get("solver", {}),
            **{key: value for key, value in result.engine_summary.items()
               if key.startswith("bytes_")},
        },
    }


def relative(a: Optional[float], b: Optional[float]) -> float:
    """|a - b| over the larger magnitude; a value against none is inf."""
    if a is None or b is None:
        return 0.0 if a is b else float("inf")
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def positions(order: List[List]) -> Dict[str, List]:
    """flow id -> [(place in the run's lifecycle sequence, event)]."""
    out: Dict[str, List] = {}
    for place, (name, flow_id) in enumerate(order):
        out.setdefault(str(flow_id), []).append((place, name))
    return out


def compare(parent: dict, change: dict) -> dict:
    """Per-flow relative differences (flows that differ only), their
    maxima per field, and the flows whose event order changed."""
    if parent["flows"].keys() != change["flows"].keys():
        raise ValueError("the two runs did not submit the same flow ids")
    rows = {}
    maxima = dict.fromkeys(FIELDS, 0.0)
    for flow_id, before in parent["flows"].items():
        delta = [relative(a, b) for a, b in zip(before, change["flows"][flow_id])]
        if any(delta):
            rows[flow_id] = delta
            for name, value in zip(FIELDS, delta):
                maxima[name] = max(maxima[name], value)
    before, after = positions(parent["order"]), positions(change["order"])
    reordered = sorted(
        (flow_id for flow_id in before.keys() | after.keys()
         if before.get(flow_id) != after.get(flow_id)),
        key=int,
    )
    return {"rows": rows, "maxima": maxima, "reordered": reordered}


def run_side(checkout: str, workload: str, seed: int) -> dict:
    # A fixed hash seed, as horsebench gives its children.
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", checkout,
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", default=ROOT, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--tolerance", type=float, default=1e-9)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        sys.stdout.write(json.dumps(child(args.child, args.workload, args.seed)) + "\n")
        return 0
    if not args.parent:
        parser.error("--parent is required")
    parent, change = (
        run_side(os.path.abspath(path), args.workload, args.seed)
        for path in (args.parent, args.change)
    )
    delta = compare(parent, change)
    print(f"{'flow':>8s} " + " ".join(f"{name:>16s}" for name in FIELDS)
          + "   (relative difference; flows that differ)")
    for flow_id, row in sorted(delta["rows"].items(), key=lambda item: int(item[0])):
        print(f"{flow_id:>8s} " + " ".join(f"{value:16.3e}" for value in row))
    flows = len(parent["flows"])
    print(f"{args.workload} seed {args.seed}: {len(delta['rows'])} of {flows} "
          f"flows differ; max relative difference "
          + ", ".join(f"{name} {value:.3e}" for name, value in delta["maxima"].items()))
    print(f"{args.workload} seed {args.seed}: event order changed for "
          f"{len(delta['reordered'])} of {flows} flows"
          + (f" (first: {delta['reordered'][:5]})" if delta["reordered"] else ""))
    same = parent["run_digest"] == change["run_digest"]
    print(f"{args.workload} seed {args.seed}: run_digest "
          f"{'same' if same else 'CHANGED'}: parent {parent['run_digest'][:12]} "
          f"change {change['run_digest'][:12]}")
    for name, value in parent["counters"].items():
        other = change["counters"].get(name)
        mark = "" if other == value else "   <- differs"
        print(f"  {name:18s} {value!s:>24s} {other!s:>24s}{mark}")
    worst = max(delta["maxima"].values())
    if worst > args.tolerance:
        print(f"FAIL: {worst:.3e} exceeds the tolerance {args.tolerance:g}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
