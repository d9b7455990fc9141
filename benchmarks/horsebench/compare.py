"""Compare two horsebench result sets (files written with ``--json``).

    python3 benchmarks/horsebench/compare.py A.json B.json

A is the base (the parent commit), B the change.  One row per
(workload, end-to-end metric): both values, the ratio B/A, and

* ``regressed``  — B is worse than A by more than the metric's bound;
* ``unresolved`` — not regressed, but the spread between either set's
  own repeats (for a timing, the gap between its two fastest repeats)
  is wider than the bound, so "unchanged" cannot be claimed;
* ``ok``         — otherwise.

Simulated statistics (the accuracy figures, ``flow_ok_share``) repeat
exactly and have no spread.  A workload whose ``run_digest`` differs
between the sets is flagged: the change altered simulated results.
Exits 1 when any row is regressed or unresolved.
"""

from __future__ import annotations

import json
import os
import sys
from statistics import median

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from horsebench.metrics import END_TO_END
else:
    from .metrics import END_TO_END


def spread(metric: str, samples) -> float:
    """How well a set's own repeats pin the value down, as a share of it.

    The timings report the fastest repeat, so what matters is whether
    the floor was reached twice: the gap between the two fastest.
    ``peak_rss_mb`` reports the median: the range of the repeats.
    """
    if len(samples) < 2:
        return 0.0
    ordered = sorted(samples)
    if metric in ("wall_s", "setup_s"):
        return (ordered[1] - ordered[0]) / ordered[0]
    return (ordered[-1] - ordered[0]) / median(ordered)


def compare(base: dict, change: dict) -> list:
    """Rows (workload, metric, a, b, ratio, bound, spread, status)."""
    rows = []
    for name, a in base["workloads"].items():
        b = change["workloads"].get(name)
        if b is None or "end_to_end" not in a or "end_to_end" not in b:
            continue
        for metric, (_unit, better, bound, _why) in END_TO_END.items():
            va, vb = a["end_to_end"][metric], b["end_to_end"][metric]
            if va is None or vb is None:
                rows.append((name, metric, va, vb, None, bound, 0.0, "regressed"))
                continue
            worse = (vb - va) / va if better == "lower" else (va - vb) / va
            widest = max(
                spread(metric, a["info"]["samples"].get(metric, ())),
                spread(metric, b["info"]["samples"].get(metric, ())),
            )
            if worse > bound:
                status = "regressed"
            elif widest > bound:
                status = "unresolved"
            else:
                status = "ok"
            rows.append((name, metric, va, vb, vb / va, bound, widest, status))
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        change = json.load(handle)
    rows = compare(base, change)
    print(f"base   {argv[0]}: seed {base['seed']}, calibration "
          f"{base['env']['calibration_score']:.3f}")
    print(f"change {argv[1]}: seed {change['seed']}, calibration "
          f"{change['env']['calibration_score']:.3f}")
    print(f"{'workload':18s} {'metric':18s} {'base':>11s} {'change':>11s} "
          f"{'change/base':>11s} {'bound':>7s} {'spread':>7s}  status")
    for name, metric, va, vb, ratio, bound, widest, status in rows:
        shown = "-" if ratio is None else f"{ratio:.4f}"
        print(f"{name:18s} {metric:18s} {va!s:>11.11s} {vb!s:>11.11s} "
              f"{shown:>11s} {bound:7.4f} {widest:7.4f}  {status}")
    for name, a in base["workloads"].items():
        b = change["workloads"].get(name, {})
        same = a["info"]["run_digest"] == b.get("info", {}).get("run_digest")
        print(f"{name:18s} run_digest {'same' if same else 'CHANGED'}")
    return 1 if any(row[-1] != "ok" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
