"""One repeat of one workload, in this process.

The driver starts a fresh interpreter per repeat (``run.py --child``),
so peak RSS and the process-global id counters belong to one run.
``measure`` is also importable: the self-check test calls it in process.

The set-up clock starts before ``repro`` is imported — a user pays the
import on every run, and work a later PR moves to import time must show
in ``setup_s`` — and stops just before ``Horse.run``.
"""

from __future__ import annotations

import resource
import sys
import time
from typing import Optional


def measure(
    workload: str,
    seed: int,
    traced: bool = False,
    tiny: bool = False,
    spans_path: Optional[str] = None,
) -> dict:
    """Set up, run and check one workload; return the raw measurements."""
    clock = time.perf_counter
    started = clock()
    from repro.runtime.scenario import reset_id_counters
    from repro.stats.export import run_digest

    from .tracer import Tracer
    from .workloads import WORKLOADS, common_violations, flow_delivered

    imported = clock()
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        reset_id_counters()
        job = WORKLOADS[workload](seed, tiny=tiny)
        marks = [clock()]
        for phase in (
            job.build_topology, job.generate_traffic, job.construct, job.submit
        ):
            phase()
            marks.append(clock())
        setup_s = marks[-1] - started

        run_started = clock()
        result = job.horse.run(until=job.until)
        wall_s = clock() - run_started
        # ru_maxrss only grows: read it before the check phase builds
        # anything else (Linux reports KiB).
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        kernel = job.horse.sim.stats_snapshot()
    finally:
        if tracer is not None:
            tracer.uninstall()

    violations = common_violations(result, job.until)
    expected = job.expected_drops()
    counted = [f for f in job.flows if f.flow_id not in expected]
    failed = sum(1 for f in counted if not flow_delivered(f))
    problems, extra = job.check(result)
    violations += problems

    out = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "flows_submitted": len(job.flows),
        "flows_counted": len(counted),
        "flows_failed": failed,
        "violations": violations,
        "run_digest": run_digest(result),
        "phases": {
            "import_s": imported - started,
            "net.topology_build_s": marks[1] - marks[0],
            "traffic.generate_s": marks[2] - marks[1],
            "core.construct_s": marks[3] - marks[2],
            "core.submit_s": marks[4] - marks[3],
        },
        "events": result.events,
        "sim_time_s": result.sim_time_s,
        "engine_stats": result.engine_stats,
        "engine_summary": result.engine_summary,
        "channel": job.horse.channel.stats_snapshot(),
        "kernel": kernel,
        "extra": extra,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        if spans_path:
            tracer.write_spans(spans_path)
    return out


def main(argv) -> int:
    """``run.py --child WORKLOAD SEED TRACED TINY [SPANS]``: print one JSON line."""
    import json

    workload, seed, traced, tiny = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    spans = argv[4] if len(argv) > 4 else None
    report = measure(workload, seed, traced=traced, tiny=tiny, spans_path=spans)
    sys.stdout.write(json.dumps(report, default=str) + "\n")
    return 0
