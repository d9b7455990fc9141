"""horsebench driver: run workloads in child processes and report.

    python3 benchmarks/horsebench/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--traced] [--json PATH] [--tiny]

One child process per repeat, one at a time.  ``--seconds`` is the
measuring budget of a workload's untraced repeats: repeats are started
until their measured time (set-up plus run) reaches it, at least
``MIN_REPEATS``.  ``--trace 1`` measures the per-layer metrics instead
(one untraced and one traced repeat); ``--traced`` measures both.

With one ``--workload`` the last line of standard output is the result
object of the BENCHMARK.json contract.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

from .metrics import END_TO_END, PER_LAYER, end_to_end, per_layer, valid

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_PY = os.path.join(HERE, "run.py")
DEFAULT_SEED = 11
DEFAULT_SECONDS = 15
MIN_REPEATS = 5
CHILD_TIMEOUT_S = 50

#: Known here so that --help and argument checks need no simulator import.
WORKLOAD_NAMES = ("ixp_replay", "pod_hotpath", "reactive_l2", "packet_reference")


def spawn_child(workload: str, seed: int, traced: bool, tiny: bool,
                spans: Optional[str] = None) -> dict:
    """Run one repeat in a fresh interpreter and return its report."""
    command = [
        sys.executable, RUN_PY, "--child", workload, str(seed),
        "1" if traced else "0", "1" if tiny else "0",
    ]
    if spans:
        command.append(spans)
    # A fixed hash seed keeps set and dict orders, and with them the
    # timings, the same from one child to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            env=env,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if done.returncode != 0:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-2000:]}"}
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"unreadable child output: {done.stdout[-500:]!r}"}


def calibration_score(loops: int = 2_000_000) -> float:
    """Seconds this host needs for a fixed pure-Python loop, over 0.1 s:
    lets a reader compare result sets taken on different machines."""
    start = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i & 7
    return (time.perf_counter() - start) / 0.1


def run_workload(name: str, seed: int, seconds: float, mode: str, tiny: bool,
                 spans: Optional[str] = None, log=print) -> dict:
    """All repeats of one workload -> its report entry."""
    repeats: List[dict] = []
    if mode in ("0", "both"):
        spent = 0.0
        while len(repeats) < MIN_REPEATS or spent < seconds:
            repeat = spawn_child(name, seed, traced=False, tiny=tiny)
            repeats.append(repeat)
            if not valid(repeat):
                break
            spent += repeat["setup_s"] + repeat["wall_s"]
            log(f"  {name} repeat {len(repeats)}: setup {repeat['setup_s']:.3f} s, "
                f"run {repeat['wall_s']:.3f} s, rss {repeat['peak_rss_mb']:.1f} MB")
    else:
        repeats.append(spawn_child(name, seed, traced=False, tiny=tiny))
    traced = None
    if mode in ("1", "both") and valid(repeats[0]):
        traced = spawn_child(name, seed, traced=True, tiny=tiny, spans=spans)

    violations = []
    digest = repeats[0].get("run_digest")
    for index, repeat in enumerate(repeats + ([traced] if traced else []), 1):
        label = "traced" if repeat is traced else f"repeat {index}"
        if repeat.get("error"):
            violations.append(f"{label}: {repeat['error']}")
            continue
        violations += [f"{label}: {v}" for v in repeat["violations"]]
        if repeat["run_digest"] != digest:
            repeat["violations"].append("run_digest differs from repeat 1")
            violations.append(f"{label}: run_digest differs from repeat 1")

    entry = {
        "n": len(repeats),
        "correct": not violations,
        "violations": violations,
        "attempted": max(1, sum(r.get("flows_counted", 0) for r in repeats)),
        "info": {
            "run_digest": digest,
            "flows_submitted": repeats[0].get("flows_submitted"),
            "events": repeats[0].get("events"),
            "extra": repeats[0].get("extra", {}),
            "samples": {
                key: [r[key] for r in repeats if valid(r)]
                for key in ("wall_s", "setup_s", "peak_rss_mb")
            },
        },
    }
    values = end_to_end(repeats)
    entry["failed"] = round((1.0 - values["flow_ok_share"]) * entry["attempted"])
    if mode in ("0", "both"):
        entry["end_to_end"] = values
    if traced is not None and valid(traced):
        # The least disturbed untraced repeat is the reference for the
        # tracing overhead and for events per second.
        reference = min(filter(valid, repeats), key=lambda r: r["wall_s"])
        entry["per_layer"] = per_layer(reference, traced)
        entry["info"]["missing_targets"] = traced["trace"]["missing_targets"]
        entry["info"]["spans"] = traced["trace"]["spans"]
        entry["info"]["span_names"] = traced["trace"]["names"]
    return entry


def contract_line(entry: dict, mode: str) -> str:
    """The BENCHMARK.json result object for one workload."""
    metrics: Dict[str, dict] = {}
    if mode == "1":
        layer = entry.get("per_layer", {})
        for name, (unit, _better, _why) in PER_LAYER.items():
            value = layer.get(name)
            # The contract wants a number: a metric whose wrap target
            # is missing reads 0 here and null in the --json report.
            metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
    else:
        for name, (unit, _better, _bound, _why) in END_TO_END.items():
            value = entry["end_to_end"][name]
            metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
    return json.dumps({
        "correct": entry["correct"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    })


def print_entry(name: str, entry: dict, log=print) -> None:
    log(f"{name}: n={entry['n']} correct={entry['correct']} "
        f"digest={str(entry['info']['run_digest'])[:12]}")
    for violation in entry["violations"]:
        log(f"  VIOLATION {violation}")
    for section, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for metric, value in entry.get(section, {}).items():
            unit = table[metric][0]
            shown = "null" if value is None else f"{value:.6g}"
            log(f"  {metric:32s} {shown:>12s} {unit}")
    if entry["info"].get("missing_targets"):
        log(f"  missing_targets: {entry['info']['missing_targets']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="horsebench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring budget of each workload's untraced repeats")
    parser.add_argument("--trace", choices=("0", "1"), default="0",
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="measure end-to-end and per-layer metrics")
    parser.add_argument("--json", metavar="PATH", help="write the full report")
    parser.add_argument("--spans", metavar="PATH",
                        help="with one workload: dump the traced run's raw spans (CSV)")
    parser.add_argument("--tiny", action="store_true",
                        help="self-check sizes (not comparable with full runs)")
    args = parser.parse_args(argv)

    try:
        import repro.api  # noqa: F401
    except ImportError as error:
        print(f"horsebench: the simulator is not importable: {error}", file=sys.stderr)
        return 2

    mode = "both" if args.traced else args.trace
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    if args.spans and len(names) != 1:
        parser.error("--spans needs --workload")
    report = {
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "calibration_score": calibration_score(),
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "workloads": {},
    }
    print(f"horsebench seed={args.seed} seconds={args.seconds:g} mode={mode} "
          f"calibration_score={report['env']['calibration_score']:.3f}")
    for name in names:
        entry = run_workload(name, args.seed, args.seconds, mode, args.tiny,
                             spans=args.spans)
        report["workloads"][name] = entry
        print_entry(name, entry)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if len(names) == 1:
        print(contract_line(report["workloads"][names[0]], mode))
    return 0 if all(e["correct"] for e in report["workloads"].values()) else 1
