"""A crash-isolated multiprocessing worker pool for sweep jobs.

Each job attempt runs in its own child process, so a worker dying — a
segfault, an ``os._exit``, an OOM kill — marks that job's attempt
failed and never takes the sweep down.  The pool adds per-job wall
timeouts (hung jobs are terminated), bounded retry with exponential
backoff, and file-based result delivery: a child writes its result JSON
atomically, so the parent only trusts results whose process exited
cleanly *and* whose file exists.  Queues or pipes would be lost with
the child; files survive.

The pool is generic over the worker callable: the sweep runner passes
the scenario job worker, benchmarks pass measurement functions.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import SweepError

#: Parent poll period while waiting on children.
_POLL_S = 0.02

#: Grace period between terminate() and kill() for a timed-out child.
_TERM_GRACE_S = 2.0


def _invoke(
    worker: Callable[[Dict[str, Any]], dict],
    payload: Dict[str, Any],
    out_path: str,
) -> None:
    """Child-process entry: run the worker, write its result atomically."""
    try:
        result = worker(payload)
    except Exception:
        traceback.print_exc()
        os._exit(1)
    tmp = f"{out_path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, out_path)


@dataclass
class JobOutcome:
    """How one job ended after all its attempts."""

    index: int
    ok: bool
    attempts: int
    wall_s: float
    error: Optional[str] = None
    out_path: Optional[str] = None


def _context() -> multiprocessing.context.BaseContext:
    """Fork where available (fast, test-friendly), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_jobs(
    payloads: List[Dict[str, Any]],
    worker: Callable[[Dict[str, Any]], dict],
    out_paths: List[str],
    *,
    workers: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.5,
    on_event: Optional[Callable[[str, int, int, str], None]] = None,
) -> List[JobOutcome]:
    """Run every payload through ``worker`` on a pool of child processes.

    Parameters
    ----------
    payloads / out_paths:
        Parallel lists: job inputs and where each result JSON lands.
        Each attempt receives ``dict(payload, attempt=n)`` (1-based).
    workers:
        Concurrent child processes.
    timeout_s:
        Per-attempt wall clock bound; a child exceeding it is
        terminated and the attempt counts as a crash.
    retries:
        Extra attempts after the first (``retries=2`` -> 3 attempts max).
    backoff_s:
        Base of the exponential retry delay
        (``backoff_s * 2**(attempt-1)``); 0 retries immediately.
    on_event:
        Progress hook ``(kind, index, attempt, detail)`` with kinds
        ``start``/``ok``/``crash``/``timeout``/``retry``/``failed``,
        called from the parent as things happen (manifest updates,
        CLI progress lines).

    Returns
    -------
    One :class:`JobOutcome` per payload, in payload order.  Job
    failures are reported, never raised — a dying worker must not kill
    the sweep.
    """
    if len(payloads) != len(out_paths):
        raise SweepError(
            f"{len(payloads)} payloads but {len(out_paths)} output paths"
        )
    if workers < 1:
        raise SweepError(f"need >= 1 worker, got {workers}")
    if retries < 0:
        raise SweepError(f"retries must be >= 0, got {retries}")
    ctx = _context()

    def emit(kind: str, index: int, attempt: int, detail: str = "") -> None:
        if on_event is not None:
            on_event(kind, index, attempt, detail)

    # (index, attempt, earliest monotonic launch time)
    queue: List[Tuple[int, int, float]] = [
        (index, 1, 0.0) for index in range(len(payloads))
    ]
    running: Dict[int, Tuple[Any, float, int]] = {}
    outcomes: Dict[int, JobOutcome] = {}
    started_at: Dict[int, float] = {}

    def finish(index: int, attempt: int, ok: bool, error: Optional[str]) -> None:
        wall = time.monotonic() - started_at[index]  # repro: noqa[DET001] - worker wall time; job results are id-reset per job
        outcomes[index] = JobOutcome(
            index=index,
            ok=ok,
            attempts=attempt,
            wall_s=wall,
            error=error,
            out_path=out_paths[index] if ok else None,
        )

    def handle_failure(index: int, attempt: int, kind: str, error: str) -> None:
        emit(kind, index, attempt, error)
        if attempt <= retries:
            delay = backoff_s * (2 ** (attempt - 1)) if backoff_s > 0 else 0.0
            queue.append((index, attempt + 1, time.monotonic() + delay))  # repro: noqa[DET001] - retry backoff is host scheduling, not sim state
            emit("retry", index, attempt + 1, f"in {delay:.2f}s")
        else:
            finish(index, attempt, ok=False, error=error)
            emit("failed", index, attempt, error)

    while queue or running:
        now = time.monotonic()  # repro: noqa[DET001] - retry backoff is host scheduling, not sim state
        progressed = False
        # Launch ready attempts into free slots, lowest index first.
        if len(running) < workers:
            queue.sort(key=lambda item: (item[2], item[0]))
            for item in list(queue):
                if len(running) >= workers:
                    break
                index, attempt, ready_at = item
                if ready_at > now:
                    continue
                queue.remove(item)
                started_at.setdefault(index, now)
                # Stale results from a crashed previous attempt must not
                # be mistaken for this attempt's output.
                if os.path.exists(out_paths[index]):
                    os.unlink(out_paths[index])
                process = ctx.Process(
                    target=_invoke,
                    args=(worker, dict(payloads[index], attempt=attempt),
                          out_paths[index]),
                    daemon=True,
                )
                process.start()
                running[index] = (process, now, attempt)
                emit("start", index, attempt)
                progressed = True
        # Reap finished and timed-out children.
        for index, (process, launched, attempt) in list(running.items()):
            if process.is_alive():
                if timeout_s is not None and now - launched > timeout_s:
                    process.terminate()
                    process.join(_TERM_GRACE_S)
                    if process.is_alive():
                        process.kill()
                        process.join()
                    del running[index]
                    handle_failure(
                        index, attempt, "timeout",
                        f"timed out after {timeout_s}s",
                    )
                    progressed = True
                continue
            process.join()
            del running[index]
            progressed = True
            if process.exitcode == 0 and os.path.exists(out_paths[index]):
                finish(index, attempt, ok=True, error=None)
                emit("ok", index, attempt)
            elif process.exitcode == 0:
                handle_failure(
                    index, attempt, "crash",
                    "worker exited cleanly without writing a result",
                )
            else:
                handle_failure(
                    index, attempt, "crash",
                    f"worker died with exit code {process.exitcode}",
                )
        if not progressed:
            time.sleep(_POLL_S)
    return [outcomes[index] for index in range(len(payloads))]
