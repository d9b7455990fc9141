#!/usr/bin/env python3
"""Sharded-runtime smoke for CI (`make shard-smoke`).

Three gates:

1. **k=1 digest parity** — ``--shards 1`` must bypass the shard
   runtime entirely and reproduce the committed golden digests bit for
   bit on the shipped scenarios.
2. **k=4 crash-restart** — a 4-shard pod run with one shard
   hard-killed mid-protocol (via the ``REPRO_SHARD_FAULT`` hook) must
   restart that shard, replay it deterministically, and finish.
3. **crash == clean** — the crashed run's merged per-flow results must
   be identical to an undisturbed k=4 run.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.runtime.scenario import run_scenario  # noqa: E402
from repro.shard.runner import FAULT_ENV, FAULT_MARKER_ENV  # noqa: E402

GOLDEN_SCENARIOS = ["quickstart", "hybrid_demo", "wire_demo"]

POD_SCENARIO = {
    "schema_version": 1,
    "engine": "flow",
    "until": 5.0,
    "seed": 11,
    "topology": {
        "kind": "pods",
        "pods": 4,
        "hosts_per_pod": 4,
        "capacity": "100 Mbps",
    },
    "policies": {"forwarding": {"mode": "shortest-path", "match_on": "ip_dst"}},
    "traffic": {
        "kind": "matrix",
        "model": "pod-local",
        "total": "400 Mbps",
        "horizon_s": 2.0,
    },
    "shards": {"count": 4, "quantum_s": 1.0},
}


def check_digest_parity() -> None:
    golden_path = os.path.join(
        ROOT, "examples", "scenarios", "GOLDEN_DIGESTS.json"
    )
    with open(golden_path) as handle:
        goldens = json.load(handle)
    for name in GOLDEN_SCENARIOS:
        path = os.path.join(ROOT, "examples", "scenarios", f"{name}.json")
        with open(path) as handle:
            scenario = json.load(handle)
        scenario["shards"] = 1
        horse, result, _count = run_scenario(scenario)
        assert horse is not None, f"{name}: --shards 1 entered the shard runtime"
        from repro.stats.export import run_digest

        digest = run_digest(result)
        want = goldens[f"{name}.json"]
        assert digest == want, f"{name}: digest {digest} != golden {want}"
        print(f"shard-smoke: k=1 digest parity OK ({name})")


def flow_fingerprint(result) -> list:
    return [
        (
            f.flow_id,
            f.src,
            f.dst,
            round(f.bytes_delivered, 6),
            round(f.end_time, 9) if f.end_time is not None else None,
            f.state.value,
        )
        for f in sorted(result.flows, key=lambda f: f.flow_id)
    ]


def check_crash_restart() -> None:
    # Clean k=4 baseline.
    _horse, clean, clean_count = run_scenario(json.loads(json.dumps(POD_SCENARIO)))
    stats = clean.engine_stats
    assert stats["engine"] == "sharded" and stats["shards"] == 4, stats
    assert stats["restarts"] == 0, stats
    assert clean_count > 0

    # Same run with shard 2 hard-killed at round 1.
    marker = tempfile.mktemp(prefix="repro-shard-smoke-")
    os.environ[FAULT_ENV] = "2:1"
    os.environ[FAULT_MARKER_ENV] = marker
    try:
        _horse, crashed, crashed_count = run_scenario(
            json.loads(json.dumps(POD_SCENARIO))
        )
    finally:
        os.environ.pop(FAULT_ENV, None)
        os.environ.pop(FAULT_MARKER_ENV, None)
        if os.path.exists(marker):
            os.remove(marker)
    assert crashed.engine_stats["restarts"] == 1, crashed.engine_stats
    assert crashed_count == clean_count, (crashed_count, clean_count)
    assert flow_fingerprint(crashed) == flow_fingerprint(clean), (
        "crash-restart run diverged from the clean k=4 run"
    )
    print(
        "shard-smoke: k=4 crash restarted shard 2 and matched the clean run "
        f"({clean_count} flows, {crashed.engine_stats['rounds']} rounds)"
    )


def main() -> int:
    check_digest_parity()
    check_crash_restart()
    print("shard-smoke: all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
