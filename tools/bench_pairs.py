"""Interleaved parent/change pairs of one horsebench workload.

    python3 tools/bench_pairs.py --parent ../parent --workload pod_hotpath \\
        [--change .] [--seeds 11 12] [--pairs 10] [--json PATH]

For each seed, runs ``--pairs`` pairs of the benchmark as its driver
runs it (``benchmarks/horsebench/run.py --workload W --seed S --seconds
15 --trace 0``, each from its own checkout), alternating which side
goes first, and prints per end-to-end metric each side's median and
quartiles, wins/ties, the ratio with its base and the verdict of the
``choosing-metrics`` guide, section 8: a gain (or a loss) is claimed
only when at least ten pairs ran, one side wins at least nine tenths
of them, ties counting for neither, and the medians differ by more than
the distance between the parent's own quartiles.  Fewer pairs print
"no claim" and say so.  A ``run_digest`` that differs
between the sides is flagged: the change altered simulated results.
``--json`` also writes those rows, per seed, with every run's
end-to-end figures and digest (``tools/bench_ledger.py`` reads it).

Both checkouts must sit on one filesystem: an unmodified copy of
``src/`` on another mount imported 0.08 s slower (``setup_s`` +22 % with
no code change).  Exits 1 when any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from statistics import quantiles
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join("benchmarks", "horsebench", "run.py")
SECONDS = 15  # BENCHMARK.json's run_seconds: what the driver passes
#: Fewer pairs than this claim nothing, however they fall: on a noisy
#: box five straight wins happen by chance.
MIN_PAIRS = 10


def verdict(parent: Sequence[float], change: Sequence[float], better: str) -> dict:
    """Judge paired samples (``parent[i]`` and ``change[i]`` ran back to
    back) of a metric for which ``better`` is "lower" or "higher"."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs, one sample per side each")
    sign = -1.0 if better == "lower" else 1.0
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    ties = sum(1 for p, c in zip(parent, change) if c == p)
    p_q1, p_median, p_q3 = quantiles(parent, n=4, method="inclusive")
    c_q1, c_median, c_q3 = quantiles(change, n=4, method="inclusive")
    gap = sign * (c_median - p_median)  # > 0: the change's median is better
    spread = p_q3 - p_q1
    if pairs < MIN_PAIRS:
        outcome = "no claim"
    elif 10 * wins >= 9 * pairs and gap > spread:
        outcome = "gain"
    elif 10 * (pairs - wins - ties) >= 9 * pairs and -gap > spread:
        outcome = "loss"
    else:
        outcome = "no claim"
    return {
        "pairs": pairs,
        "wins": wins,
        "ties": ties,
        "parent": (p_median, p_q1, p_q3),
        "change": (c_median, c_q1, c_q3),
        "ratio": c_median / p_median if p_median else None,
        "gap": gap,
        "parent_iqr": spread,
        "verdict": outcome,
    }


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One driver-form run from ``checkout``; returns its report entry."""
    with tempfile.TemporaryDirectory() as scratch:
        report = os.path.join(scratch, "report.json")
        done = subprocess.run(
            [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
             "--seconds", str(SECONDS), "--trace", "0", "--json", report],
            cwd=checkout, capture_output=True, text=True,
        )
        if not os.path.exists(report):
            raise RuntimeError(
                f"{checkout}: horsebench exit {done.returncode}: {done.stderr[-2000:]}"
            )
        with open(report) as handle:
            return json.load(handle)["workloads"][workload]


def seed_rows(sides: Dict[str, List[dict]], better: Dict[str, str]) -> dict:
    """One seed's verdict per end-to-end metric (None where the workload
    does not measure it), each run's figures and the digests seen."""
    verdicts: Dict[str, Optional[dict]] = {}
    for metric, direction in better.items():
        samples = {
            side: [entry["end_to_end"][metric] for entry in entries]
            for side, entries in sides.items()
        }
        measured = all(v is not None for values in samples.values() for v in values)
        verdicts[metric] = (
            verdict(samples["parent"], samples["change"], direction)
            if measured else None
        )
    runs = {
        side: [dict(entry["end_to_end"], run_digest=entry["info"]["run_digest"])
               for entry in entries]
        for side, entries in sides.items()
    }
    return {
        "verdicts": verdicts,
        "runs": runs,
        "run_digest": {side: sorted({str(run["run_digest"]) for run in side_runs})
                       for side, side_runs in runs.items()},
    }


def print_seed(seed: int, rows: dict) -> None:
    print(f"seed {seed}: {len(rows['runs']['parent'])} pairs")
    print(f"  {'metric':17s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'wins/ties/pairs':>15s} "
          f"{'change/parent':>13s}  verdict")
    for metric, v in rows["verdicts"].items():
        if v is None:
            print(f"  {metric:17s} not measured on this workload")
            continue
        shown = {
            side: "{:.6g} [{:.6g}, {:.6g}]".format(*v[side])
            for side in ("parent", "change")
        }
        ratio = "-" if v["ratio"] is None else f"{v['ratio']:.4f} x"
        print(f"  {metric:17s} {shown['parent']:>32s} {shown['change']:>32s} "
              f"{v['wins']:>7d}/{v['ties']}/{v['pairs']:<5d} {ratio:>13s}  "
              f"{v['verdict']} (gap {v['gap']:.4g} vs parent IQR {v['parent_iqr']:.4g}"
              + (f"; fewer than {MIN_PAIRS} pairs)" if v["pairs"] < MIN_PAIRS else ")"))
    digests = rows["run_digest"]
    changed = digests["parent"] != digests["change"]
    print(f"  run_digest {'CHANGED' if changed else 'same'}: "
          f"parent {[d[:12] for d in digests['parent']]} "
          f"change {[d[:12] for d in digests['change']]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", default=ROOT, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 12])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", metavar="PATH", help="also write the per-seed rows")
    args = parser.parse_args(argv)

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    for side, path in checkouts.items():
        if not os.path.exists(os.path.join(path, RUN_PY)):
            parser.error(f"--{side} {path}: no {RUN_PY}")
    if os.stat(checkouts["parent"]).st_dev != os.stat(checkouts["change"]).st_dev:
        parser.error("the two checkouts are on different filesystems; "
                     "import time alone would differ")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as handle:
        better = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}

    correct = True
    written = {"workload": args.workload, "checkouts": checkouts, "seeds": {}}
    for seed in args.seeds:
        sides: Dict[str, List[dict]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                entry = run_once(checkouts[side], args.workload, seed)
                sides[side].append(entry)
                correct = correct and entry["correct"]
                print(f"seed {seed} pair {pair + 1} {side:6s} "
                      f"wall_s {entry['end_to_end']['wall_s']!s:.6} "
                      f"correct={entry['correct']}", flush=True)
        rows = seed_rows(sides, better)
        print_seed(seed, rows)
        written["seeds"][str(seed)] = rows
        if args.json:  # rewritten per seed: a cut-short run keeps what it measured
            with open(args.json, "w") as handle:
                json.dump(written, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
