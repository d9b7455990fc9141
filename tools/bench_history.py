"""One metric's trend per workload across the benchmark ledger.

    python3 tools/bench_history.py [METRIC] [--ledger DIR]

Reads every ``BENCH_<pr>.json`` under ``benchmarks/ledger/`` (or
``--ledger``), in PR order, and prints per workload one row per entry
that measured ``METRIC`` (default ``wall_s``; an end-to-end or a
per-layer name): the parent's and the change's figure, their ratio, and
per round of pairs each seed's verdict with wins / pairs, as recorded -
except that a round of fewer than ``bench_pairs.MIN_PAIRS`` pairs reads
"no claim", whatever verdict was recorded for it.  Entries marked ``"backfill": true`` were rebuilt from CHANGES.md rather
than measured by ``tools/bench_ledger.py``; their rows carry a ``*``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "benchmarks", "ledger")
sys.path.insert(0, os.path.join(ROOT, "tools"))
from bench_pairs import MIN_PAIRS  # noqa: E402


def load(ledger: str) -> List[dict]:
    """The ledger's entries, oldest PR first."""
    entries = []
    for path in glob.glob(os.path.join(ledger, "BENCH_*.json")):
        with open(path) as handle:
            entries.append(json.load(handle))
    return sorted(entries, key=lambda entry: entry["pr"])


def trend(entries: List[dict], metric: str) -> Dict[str, List[dict]]:
    """Per workload, one row per entry with a figure or a verdict for
    ``metric``."""
    rows: Dict[str, List[dict]] = {}
    for entry in entries:
        for workload, record in sorted(entry["workloads"].items()):
            figures = (record.get("end_to_end", {}).get(metric)
                       or record.get("per_layer", {}).get(metric) or {})
            rounds = [
                {seed: (found["verdict"] if found["pairs"] >= MIN_PAIRS else "no claim",
                        found["wins"], found["pairs"])
                 for seed, measured in sorted(round_.items())
                 if (found := measured["verdicts"].get(metric)) is not None}
                for round_ in record.get("pairs", [])
            ]
            rounds = [round_ for round_ in rounds if round_]
            if not figures and not rounds:
                continue
            parent, change = figures.get("parent"), figures.get("change")
            rows.setdefault(workload, []).append({
                "pr": entry["pr"],
                "backfill": bool(entry.get("backfill")),
                "parent": parent,
                "change": change,
                "ratio": change / parent if parent and change is not None else None,
                "rounds": rounds,
            })
    return rows


def _figure(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("metric", nargs="?", default="wall_s")
    parser.add_argument("--ledger", default=LEDGER)
    args = parser.parse_args(argv)
    entries = load(args.ledger)
    rows = trend(entries, args.metric)
    print(f"{args.metric} across {len(entries)} ledger entries "
          "(* backfilled from CHANGES.md)")
    for workload, history in rows.items():
        print(workload)
        print(f"  {'PR':>5s} {'parent':>12s} {'change':>12s} {'ratio':>7s}  "
              "pairs: seed verdict wins/pairs, per round")
        for row in history:
            ratio = "-" if row["ratio"] is None else f"{row['ratio']:.4f}"
            rounds = " | ".join(
                ", ".join(f"{seed} {verdict} {wins}/{pairs}"
                          for seed, (verdict, wins, pairs) in round_.items())
                for round_ in row["rounds"]
            )
            mark = "*" if row["backfill"] else " "
            print(f"  {row['pr']:>4d}{mark} {_figure(row['parent']):>12s} "
                  f"{_figure(row['change']):>12s} {ratio:>7s}  {rounds or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
