"""Write one entry of the benchmark ledger, ``benchmarks/ledger/BENCH_<pr>.json``.

    python3 tools/bench_ledger.py --pr N --title "..." \\
        --parent-report parent.json --change-report change.json \\
        --pairs pairs_packet_reference.json [pairs_ixp_replay.json ...] \\
        [--out benchmarks/ledger/BENCH_N.json]

The two reports are ``benchmarks/horsebench/run.py --traced --json``
outputs, one run from each checkout; the pairs files are
``tools/bench_pairs.py --json`` outputs.  Per workload of the reports
the entry holds each side's end-to-end and per-layer figures, its
``run_digest`` and box (``calibration_score``), and per workload with
pairs, one item per pairs file (a round), the per-seed verdicts (pairs,
wins, ties, medians, quartiles, gap and the parent's IQR) with the
digests the pairs saw.  Nothing is recomputed: the entry is what the
two tools measured, side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def entry(pr: int, title: str, reports: Dict[str, dict], pairs: List[dict]) -> dict:
    """The ledger entry of one change from its measurements."""
    workloads: Dict[str, dict] = {}
    names = set(reports["parent"]["workloads"]) | set(reports["change"]["workloads"])
    for name in sorted(names):
        sides = {side: report["workloads"].get(name, {})
                 for side, report in reports.items()}
        record: Dict[str, dict] = {}
        for layer in ("end_to_end", "per_layer"):
            metrics = set().union(*(fig.get(layer, {}) for fig in sides.values()))
            record[layer] = {
                metric: {side: figures.get(layer, {}).get(metric)
                         for side, figures in sides.items()}
                for metric in sorted(metrics)
            }
        record["run_digest"] = {side: figures.get("info", {}).get("run_digest")
                                for side, figures in sides.items()}
        workloads[name] = record
    for rows in pairs:  # every round of pairs run, in the order given
        workloads.setdefault(rows["workload"], {}).setdefault("pairs", []).append({
            seed: {key: measured[key] for key in ("verdicts", "run_digest")}
            for seed, measured in rows["seeds"].items()
        })
    return {
        "pr": pr,
        "title": title,
        "backfill": False,
        "env": {side: report["env"] for side, report in reports.items()},
        "seed": {side: report["seed"] for side, report in reports.items()},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--title", required=True)
    parser.add_argument("--parent-report", required=True)
    parser.add_argument("--change-report", required=True)
    parser.add_argument("--pairs", nargs="+", default=[],
                        help="tools/bench_pairs.py --json outputs")
    parser.add_argument("--out", help="default: benchmarks/ledger/BENCH_<pr>.json")
    args = parser.parse_args(argv)
    reports = {"parent": _load(args.parent_report), "change": _load(args.change_report)}
    written = entry(args.pr, args.title, reports, [_load(path) for path in args.pairs])
    out = args.out or os.path.join(
        ROOT, "benchmarks", "ledger", f"BENCH_{args.pr}.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(written, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}: {', '.join(sorted(written['workloads']))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
