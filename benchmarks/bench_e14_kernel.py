"""E14: pending-event-set scalability under cancellation churn.

Reschedulable timers tear up and re-issue projections constantly (a
flow-completion event is retimed on every rate change).  Under the
pure-lazy kernel each retiming is cancel-and-push: the tombstone stays
in the heap until popped, so a churn-heavy run's heap grows with the
number of *reschedules*, not the number of live timers, and every
push/pop pays log of that inflated size.  The E14 kernel adds
stale-entry accounting with threshold-triggered compaction plus a
first-class ``Simulator.reschedule``; this experiment gates both claims
on a cancel-heavy workload (~200k retimings over 10k live timers):

* **speedup** — the reschedule+compaction path must beat the pure-lazy
  cancel-and-push path by >= 2x wall clock;
* **bounded memory** — the compacting heap's peak raw size must stay
  <= 2x the live timers (the lazy heap grows to ~(rounds+1)x);
* **transparency** — both paths must fire the identical event-time
  sequence (compaction and rescheduling change *performance only*).

Runs both as a pytest benchmark (``make bench``) and as a standalone
CI gate::

    python -m benchmarks.bench_e14_kernel
"""

from __future__ import annotations

import sys
import time

from repro.sim import HeapEventQueue, Simulator
from repro.sim.queue import DEFAULT_MIN_COMPACT_SIZE

from .harness import record, rows, write_table

SPEEDUP_LIMIT = 2.0
#: Live timers and reschedule rounds: ~200k retimings total.
N_TIMERS = 10_000
ROUNDS = 20
#: Timers sit far in the future while the churn happens, then all fire.
T_BASE = 1_000.0
SPACING = 1e-3


def _target(i: int, round_no: int) -> float:
    """Deterministic retiming for timer ``i`` at churn round ``round_no``
    (round -1 is the initial schedule).  Times stay distinct per timer,
    so the fired sequence is a pure function of the final round."""
    return T_BASE + i * SPACING + (round_no + 1) * 0.5


def churn_lazy(timers_n: int = N_TIMERS, rounds: int = ROUNDS) -> tuple:
    """The pre-E14 idiom: cancel + fresh event, never compacting."""
    queue = HeapEventQueue(compaction_threshold=None)
    sim = Simulator(queue=queue)
    fired = []
    callback = lambda s: fired.append(s.now)  # noqa: E731
    timers = [sim.call_at(_target(i, -1), callback) for i in range(timers_n)]
    start = time.perf_counter()
    for round_no in range(rounds):
        for i in range(timers_n):
            sim.cancel(timers[i])
            timers[i] = sim.call_at(_target(i, round_no), callback)
    sim.run()
    wall = time.perf_counter() - start
    return wall, queue.peak_size, fired


def churn_reschedule(timers_n: int = N_TIMERS, rounds: int = ROUNDS) -> tuple:
    """The E14 path: ``Simulator.reschedule`` on the compacting queue."""
    queue = HeapEventQueue()  # default threshold 0.5
    sim = Simulator(queue=queue)
    fired = []
    callback = lambda s: fired.append(s.now)  # noqa: E731
    timers = [sim.call_at(_target(i, -1), callback) for i in range(timers_n)]
    start = time.perf_counter()
    for round_no in range(rounds):
        for i in range(timers_n):
            timers[i] = sim.reschedule(timers[i], _target(i, round_no))
    sim.run()
    wall = time.perf_counter() - start
    return wall, queue.peak_size, fired, queue.compactions


def run_e14() -> dict:
    wall_lazy, peak_lazy, fired_lazy = churn_lazy()
    wall_new, peak_new, fired_new, compactions = churn_reschedule()
    assert fired_lazy == fired_new, (
        "compaction/reschedule changed the fired event sequence "
        f"({len(fired_lazy)} vs {len(fired_new)} events)"
    )
    row = {
        "timers": N_TIMERS,
        "reschedules": N_TIMERS * ROUNDS,
        "wall_lazy_s": round(wall_lazy, 3),
        "wall_resched_s": round(wall_new, 3),
        "speedup": round(wall_lazy / wall_new, 2),
        "peak_heap_lazy": peak_lazy,
        "peak_heap_resched": peak_new,
        "compactions": compactions,
    }
    record("E14", row)
    return row


def check_e14(row: dict) -> None:
    assert row["speedup"] >= SPEEDUP_LIMIT, row
    assert row["peak_heap_resched"] <= 2 * N_TIMERS + DEFAULT_MIN_COMPACT_SIZE, row
    assert row["compactions"] > 0, row
    # The lazy heap really does inflate — otherwise this workload
    # would not be measuring what it claims to.
    assert row["peak_heap_lazy"] > 4 * N_TIMERS, row


def bench_e14_kernel_churn(benchmark):
    row = benchmark.pedantic(run_e14, rounds=1, iterations=1)
    check_e14(row)


def bench_e14_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    write_table("E14", "event kernel: reschedule+compaction vs pure-lazy churn")
    assert rows("E14")


def main() -> int:
    row = run_e14()
    print(
        f"e14: {row['timers']} timers, {row['reschedules']} reschedules  "
        f"lazy {row['wall_lazy_s']}s (peak heap {row['peak_heap_lazy']})  "
        f"resched {row['wall_resched_s']}s (peak heap "
        f"{row['peak_heap_resched']}, {row['compactions']} compactions)  "
        f"speedup {row['speedup']}x"
    )
    check_e14(row)
    print("e14: gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
