"""Telemetry overhead gate: disabled instrumentation must stay free.

Every hot-path emission site added by the telemetry subsystem is guarded
by a single ``is not None`` attribute read (kernel dispatch, solver
resolve, engine route/recompute/notify, channel handlers).  This gate
enforces that the guards are actually free: the smoke hot-path workload
with telemetry *disabled* (the default) must run within
``OVERHEAD_LIMIT`` of the committed pre-telemetry baseline in
``BENCH_e2.json`` (``smoke_hotpath_incremental``), calibration-
normalized so the bound transfers across machines.

Usage::

    python -m benchmarks.telemetry_gate
"""

from __future__ import annotations

import sys
import time

from .harness import (
    calibration_score,
    load_baseline,
    pod_workload,
    timed_solver_run,
)

#: The acceptance bound: <5% normalized slowdown with telemetry disabled.
OVERHEAD_LIMIT = 1.05
ROUNDS = 8
CONFIRM_PASSES = 2
BASELINE_CASE = "smoke_hotpath_incremental"


def measure() -> tuple[float, float]:
    """Best-of-N *normalized* time of the smoke hot-path workload
    (telemetry off — every trace slot is None,
    exactly what every default run pays).

    Each round pairs the workload with a calibration sample taken
    immediately before it, so transient host load inflates numerator
    and denominator together and the per-round normalized time stays
    stable; the minimum across rounds then discards rounds a load
    spike hit anyway.  A real structural regression (guard cost on the
    hot path) survives the minimum because it is present in every
    round.  Returns ``(best_normalized, score_of_best_round)``.
    """
    best = float("inf")
    best_score = 1.0
    for _ in range(ROUNDS):
        score = calibration_score()
        topo, flows = pod_workload(pods=8, hosts_per_pod=8, flows_per_pod=60)
        wall, rates = timed_solver_run(topo, flows, "incremental", until=1.5)
        assert sum(1 for r in rates if r > 0) == len(flows)
        if wall / score < best:
            best, best_score = wall / score, score
    return best, best_score


def main(argv=None) -> int:
    baseline = load_baseline()
    if baseline is None:
        print("no BENCH_e2.json baseline; run `python -m benchmarks.smoke "
              "--update` first", file=sys.stderr)
        return 2
    entry = baseline.get("entries", {}).get(BASELINE_CASE)
    if entry is None:
        print(f"baseline has no {BASELINE_CASE!r} entry", file=sys.stderr)
        return 2

    start = time.perf_counter()
    normalized, score = measure()
    print(f"calibration score: {score:.3f} (1.0 = reference machine)")
    print(f"hotpath best-of-{ROUNDS}: normalized {normalized:.3f} "
          f"(measured in {time.perf_counter() - start:.1f}s)")

    ratio = normalized / entry["normalized"]
    for _ in range(CONFIRM_PASSES):
        if ratio <= OVERHEAD_LIMIT:
            break
        # A structural regression reproduces; a load spike does not.
        # Confirm over additional full passes before failing the gate.
        print(f"over limit ({ratio:.3f}x); re-measuring to confirm")
        normalized = min(normalized, measure()[0])
        ratio = normalized / entry["normalized"]
    verdict = "ok" if ratio <= OVERHEAD_LIMIT else "REGRESSION"
    print(f"telemetry-disabled overhead: {ratio:.3f}x baseline ({verdict})")
    if ratio > OVERHEAD_LIMIT:
        print(
            f"telemetry gate failed: normalized {normalized:.3f} vs "
            f"baseline {entry['normalized']} "
            f"({ratio:.2f}x > {OVERHEAD_LIMIT}x)",
            file=sys.stderr,
        )
        return 1
    print("telemetry gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
