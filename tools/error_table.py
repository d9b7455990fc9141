"""Per-flow error of the hybrid and flow engines against the packet engine.

    python3 tools/error_table.py [--checkout .] [--seed 11]

Builds horsebench's ``packet_reference`` workload from ``--checkout``
(its own ``src`` and ``benchmarks/horsebench/workloads.py``, imported as
they are), runs it through the packet engine, then runs the same flows
through the hybrid (every elastic flow in the foreground) and the flow
engine as the workload's accuracy check does, and prints the per-flow
relative error against the packet run of
- FCT, hybrid vs packet, and
- goodput, flow vs packet,
over the elastic (sized) flows: per size bucket the count, mean and
max, and over all of them the mean and the 90th percentile (linear
interpolation).  The last line gives horsebench's two scalars,
``fct_acc_hybrid`` and ``goodput_acc_flow`` (the latter averages the
CBR flows too), so the table can be tied to them.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Elastic flow sizes are drawn from [100 kB, 400 kB).
BUCKETS = ((100e3, 200e3), (200e3, 300e3), (300e3, 400e3))


def errors(checkout: str, seed: int) -> Dict[str, object]:
    """Per-flow relative errors of one ``packet_reference`` run."""
    sys.path[:0] = [checkout, os.path.join(checkout, "src")]
    from benchmarks.horsebench.workloads import WORKLOADS, _goodputs
    from repro.runtime.scenario import reset_id_counters
    from repro.stats.metrics import mean_relative_error, relative_error

    reset_id_counters()
    job = WORKLOADS["packet_reference"](seed)
    job.build_topology()
    job.generate_traffic()
    job.construct()
    job.submit()
    job.horse.run(until=job.until)
    elastic = [i for i, spec in enumerate(job.specs) if spec["elastic"]]
    hybrid, _ = job.run_other_engine("hybrid", hybrid={"select": f"top:{len(elastic)}"})
    fluid, _ = job.run_other_engine("flow")
    goodput = {side: _goodputs(flows, job.until)
               for side, flows in (("packet", job.flows), ("flow", fluid))}
    return {
        "sizes": [job.specs[i]["size_bytes"] for i in elastic],
        "fct_hybrid": [relative_error(hybrid[i].flow_completion_time,
                                      job.flows[i].flow_completion_time)
                       for i in elastic],
        "goodput_flow": [relative_error(goodput["flow"][i], goodput["packet"][i])
                         for i in elastic],
        "goodput_all_flows": mean_relative_error(goodput["flow"], goodput["packet"]),
    }


def table(found: Dict[str, object]) -> List[str]:
    """Markdown rows: one per size bucket, then the overall row."""
    import numpy as np

    sizes = found["sizes"]
    columns = ("fct_hybrid", "goodput_flow")
    lines = [
        "| flows | n | FCT err (hybrid) mean | max | p90 "
        "| goodput err (flow) mean | max | p90 |",
        "|---|---|---|---|---|---|---|---|",
    ]
    rows = [(f"{low / 1e3:.0f}-{high / 1e3:.0f} kB",
             [i for i, size in enumerate(sizes) if low <= size < high], False)
            for low, high in BUCKETS]
    rows.append(("all sized", list(range(len(sizes))), True))
    for label, members, overall in rows:
        cells = [label, str(len(members))]
        for column in columns:
            values = np.array([found[column][i] for i in members])
            cells += [f"{values.mean():.4f}", f"{values.max():.4f}",
                      f"{np.percentile(values, 90):.4f}" if overall else "-"]
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--checkout", default=ROOT, help="checkout to run")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    found = errors(os.path.abspath(args.checkout), args.seed)
    print(f"packet_reference seed {args.seed}: per-flow relative error "
          "against the packet engine")
    for line in table(found):
        print(line)
    print(f"fct_acc_hybrid {1.0 - sum(found['fct_hybrid']) / len(found['sizes']):.6f}  "
          f"goodput_acc_flow {1.0 - found['goodput_all_flows']:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
