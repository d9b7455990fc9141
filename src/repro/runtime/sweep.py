"""Parameter sweeps: template x grid -> jobs -> one deterministic report.

A *sweep spec* is a JSON document holding a base scenario, a parameter
grid (dotted paths into the v1 scenario document, the same paths the
CLI's override flags edit), and runtime knobs::

    {
      "name": "solver-scale",
      "base": { ...scenario... },          # or "base_file": "pod.json"
      "grid": {"solver": ["incremental", "full"],
               "topology.k": [4, 6]},
      "runtime": {"seed": 7, "workers": 2, "timeout_s": 120,
                  "retries": 2, "backoff_s": 0.5,
                  "checkpoint_interval_s": 5.0}
    }

Expansion is the cartesian product of the grid in key order (an axis
that names no scenario key is an error, not N identical jobs); job
``index`` is the product rank, and each job's RNG seed is derived as
``spawn_seed(sweep_seed, index)`` so results are independent of
execution order, worker assignment, and retries.  Jobs run on the
crash-isolated pool (:mod:`.pool`); progress is persisted to
``manifest.json`` after every job so an interrupted sweep resumes with
``repro resume DIR``, re-running only unfinished jobs.  The final
``report.json`` separates deterministic content (``results`` and
``summary`` — identical for serial and parallel execution) from
execution metadata (wall time, attempts, retries).
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..errors import SweepError
from ..sim.rng import spawn_seed
from .pool import run_jobs
from .scenario import reset_id_counters, run_scenario
from .schema import ensure_v1, set_dotted, validate_scenario

MANIFEST_VERSION = 1

#: Exit code of a fault-injected worker crash (distinctive in logs).
FAULT_EXIT_CODE = 23


# ----------------------------------------------------------------------
# Spec and expansion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepJob:
    """One expanded grid point: a concrete runnable scenario."""

    index: int
    params: Dict[str, Any]
    seed: int
    scenario: Dict[str, Any]


@dataclass
class SweepSpec:
    """A validated sweep document."""

    name: str
    base: Dict[str, Any]
    grid: Dict[str, List[Any]]
    runtime: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict, *, base_dir: Optional[str] = None) -> "SweepSpec":
        if not isinstance(doc, dict):
            raise SweepError(f"sweep spec must be an object, got {type(doc).__name__}")
        base = doc.get("base")
        if base is None and "base_file" in doc:
            path = doc["base_file"]
            if base_dir is not None and not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            try:
                with open(path) as handle:
                    base = json.load(handle)
            except (OSError, ValueError) as exc:
                raise SweepError(f"cannot load base_file {path!r}: {exc}") from exc
        if not isinstance(base, dict):
            raise SweepError("sweep spec needs a 'base' scenario object")
        grid = doc.get("grid") or {}
        if not isinstance(grid, dict) or not grid:
            raise SweepError("sweep spec needs a non-empty 'grid' object")
        for key, values in grid.items():
            if not isinstance(values, list) or not values:
                raise SweepError(
                    f"grid values for {key!r} must be a non-empty list"
                )
        runtime = doc.get("runtime") or {}
        if not isinstance(runtime, dict):
            raise SweepError("'runtime' must be an object")
        return cls(
            name=str(doc.get("name", "sweep")),
            base=base,
            grid={str(k): list(v) for k, v in grid.items()},
            runtime=dict(runtime),
        )

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SweepError(f"cannot load sweep spec {path!r}: {exc}") from exc
        return cls.from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "base": self.base,
            "grid": self.grid,
            "runtime": self.runtime,
        }


def expand_jobs(spec: SweepSpec) -> List[SweepJob]:
    """The cartesian product of the grid, in deterministic index order.

    Every job gets its own RNG seed via stable spawn-key hashing of
    (sweep seed, job index) — unless ``seed`` is itself a grid axis, in
    which case the grid value wins.  Grid axes edit the migrated (v1)
    base, and every job's document is validated here, before anything
    runs.
    """
    base = ensure_v1(spec.base, warn=False)
    sweep_seed = int(spec.runtime.get("seed", base.get("seed", 0)))
    keys = list(spec.grid)
    jobs: List[SweepJob] = []
    for index, combo in enumerate(itertools.product(*(spec.grid[k] for k in keys))):
        params = dict(zip(keys, combo))
        scenario = copy.deepcopy(base)
        for key, value in params.items():
            set_dotted(scenario, key, value)
        if "seed" in params:
            seed = int(params["seed"])
        else:
            seed = spawn_seed(sweep_seed, "job", index)
            scenario["seed"] = seed
        validate_scenario(scenario)
        jobs.append(
            SweepJob(index=index, params=params, seed=seed, scenario=scenario)
        )
    return jobs


# ----------------------------------------------------------------------
# The per-job worker (runs in a pool child process)
# ----------------------------------------------------------------------
def _sweep_worker(payload: Dict[str, Any]) -> dict:
    """Build and run one job's scenario; return its result document.

    Top-level (not a closure) so it pickles under a spawn start method.
    Supports fault injection for the crash-isolation tests: a runtime
    ``fault`` of ``{"job": N, "crashes": K}`` hard-kills the first K
    attempts of job N.  If a periodic checkpoint from a previous
    (crashed) attempt exists, the run resumes from it instead of
    starting over.
    """
    attempt = int(payload.get("attempt", 1))
    fault = payload.get("fault") or {}
    if payload["index"] == fault.get("job") and attempt <= int(
        fault.get("crashes", 0)
    ):
        os._exit(FAULT_EXIT_CODE)

    scenario = copy.deepcopy(ensure_v1(payload["scenario"], warn=False))
    # Per-phase wall clock on by default so every job manifests where its
    # time went; the spec can opt out with {"telemetry": {"profile": false}}.
    if "profile" not in scenario.get("telemetry", {}):
        set_dotted(scenario, "telemetry.profile", True)
    ckpt_path = payload.get("checkpoint_path")
    interval = payload.get("checkpoint_interval_s")
    if ckpt_path and interval:
        set_dotted(scenario, "checkpoint.path", ckpt_path)
        set_dotted(scenario, "checkpoint.interval_s", interval)

    resumed = False
    if ckpt_path and os.path.exists(ckpt_path):
        from .checkpoint import load_checkpoint

        reset_id_counters()  # as run_scenario does: no fork inheritance
        horse = load_checkpoint(ckpt_path)
        result = horse.run(until=scenario.get("until"))
        flows = len(horse.engine.flows)
        resumed = True
    else:
        horse, result, flows = run_scenario(scenario)
    if ckpt_path and os.path.exists(ckpt_path):
        os.unlink(ckpt_path)  # done; a stale checkpoint must not leak into resume

    row = result.row()
    row.pop("wall_time_s", None)
    row.pop("events_per_s", None)
    # The per-phase profile is wall clock, so it belongs with the other
    # non-deterministic bookkeeping in "execution" — never in "result",
    # which must aggregate byte-identically across schedules.
    engine_stats = dict(result.engine_stats)
    profile = engine_stats.pop("profile", None)
    execution = {
        "attempt": attempt,
        "resumed_from_checkpoint": resumed,
        "wall_time_s": round(result.wall_time_s, 4),
    }
    if profile is not None:
        execution["profile"] = profile
    return {
        "index": payload["index"],
        "params": payload["params"],
        "seed": scenario.get("seed"),
        "result": {
            **row,
            "fct": result.fct_summary(),
            "fairness": result.fairness(),
            "engine_stats": engine_stats,
        },
        "execution": execution,
    }


# ----------------------------------------------------------------------
# Manifest + execution
# ----------------------------------------------------------------------
def _write_json(path: str, doc: dict) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def _manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "manifest.json")


def _job_path(out_dir: str, index: int) -> str:
    return os.path.join(out_dir, "jobs", f"job-{index:04d}.json")


def _ckpt_path(out_dir: str, index: int) -> str:
    return os.path.join(out_dir, "checkpoints", f"job-{index:04d}.ckpt")


def _load_manifest(out_dir: str) -> dict:
    path = _manifest_path(out_dir)
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SweepError(f"cannot load sweep manifest {path!r}: {exc}") from exc
    if doc.get("manifest_version", 0) > MANIFEST_VERSION:
        raise SweepError(
            f"manifest version {doc.get('manifest_version')} is newer than "
            f"this build supports ({MANIFEST_VERSION})"
        )
    return doc


def run_sweep(
    spec: SweepSpec,
    out_dir: str,
    *,
    workers: Optional[int] = None,
    on_event: Optional[Callable[[str, int, int, str], None]] = None,
) -> dict:
    """Execute a sweep from scratch into ``out_dir``; returns the report."""
    jobs = expand_jobs(spec)
    os.makedirs(os.path.join(out_dir, "jobs"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "checkpoints"), exist_ok=True)
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "name": spec.name,
        "spec": spec.to_dict(),
        "created_unix": round(time.time(), 3),  # repro: noqa[DET001] - manifest metadata; not job input
        "jobs": [
            {
                "index": job.index,
                "params": job.params,
                "seed": job.seed,
                "status": "pending",
                "attempts": 0,
                "error": None,
            }
            for job in jobs
        ],
    }
    _write_json(_manifest_path(out_dir), manifest)
    return _execute(spec, jobs, list(range(len(jobs))), out_dir, manifest,
                    workers=workers, on_event=on_event)


def resume_sweep(
    out_dir: str,
    *,
    workers: Optional[int] = None,
    on_event: Optional[Callable[[str, int, int, str], None]] = None,
) -> dict:
    """Re-run only the unfinished jobs of an interrupted sweep."""
    manifest = _load_manifest(out_dir)
    spec = SweepSpec.from_dict(manifest["spec"])
    jobs = expand_jobs(spec)
    if len(jobs) != len(manifest.get("jobs", [])):
        raise SweepError(
            f"manifest lists {len(manifest.get('jobs', []))} jobs but the "
            f"spec expands to {len(jobs)} — the sweep directory is stale"
        )
    pending = [
        entry["index"]
        for entry in manifest["jobs"]
        if entry.get("status") != "done"
    ]
    if not pending:
        report = aggregate_report(out_dir)
        _write_json(os.path.join(out_dir, "report.json"), report)
        return report
    return _execute(spec, jobs, pending, out_dir, manifest,
                    workers=workers, on_event=on_event)


def _execute(
    spec: SweepSpec,
    jobs: List[SweepJob],
    indices: List[int],
    out_dir: str,
    manifest: dict,
    *,
    workers: Optional[int],
    on_event: Optional[Callable[[str, int, int, str], None]],
) -> dict:
    runtime = spec.runtime
    worker_count = int(workers or runtime.get("workers", 1))
    interval = runtime.get("checkpoint_interval_s")
    fault = runtime.get("fault")
    by_index = {job.index: job for job in jobs}

    payloads: List[Dict[str, Any]] = []
    out_paths: List[str] = []
    for index in indices:
        job = by_index[index]
        payload: Dict[str, Any] = {
            "index": job.index,
            "params": job.params,
            "scenario": job.scenario,
        }
        if interval:
            payload["checkpoint_path"] = _ckpt_path(out_dir, job.index)
            payload["checkpoint_interval_s"] = interval
        if fault:
            payload["fault"] = fault
        payloads.append(payload)
        out_paths.append(_job_path(out_dir, job.index))

    entries = {entry["index"]: entry for entry in manifest["jobs"]}

    def pool_event(kind: str, position: int, attempt: int, detail: str) -> None:
        index = indices[position]
        entry = entries[index]
        if kind == "start":
            entry["status"] = "running"
            entry["attempts"] = attempt
        elif kind == "ok":
            entry["status"] = "done"
            entry["error"] = None
            _write_json(_manifest_path(out_dir), manifest)
        elif kind == "failed":
            entry["status"] = "failed"
            entry["error"] = detail
            _write_json(_manifest_path(out_dir), manifest)
        elif kind in ("crash", "timeout"):
            entry["error"] = detail
        if on_event is not None:
            on_event(kind, index, attempt, detail)

    outcomes = run_jobs(
        payloads,
        _sweep_worker,
        out_paths,
        workers=worker_count,
        timeout_s=runtime.get("timeout_s", 300.0),
        retries=int(runtime.get("retries", 2)),
        backoff_s=float(runtime.get("backoff_s", 0.5)),
        on_event=pool_event,
    )
    for position, outcome in enumerate(outcomes):
        entry = entries[indices[position]]
        entry["status"] = "done" if outcome.ok else "failed"
        entry["attempts"] = outcome.attempts
        entry["error"] = outcome.error
        entry["wall_s"] = round(outcome.wall_s, 4)
    _write_json(_manifest_path(out_dir), manifest)

    report = aggregate_report(out_dir)
    _write_json(os.path.join(out_dir, "report.json"), report)
    return report


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def aggregate_report(out_dir: str) -> dict:
    """Fold per-job results into one report, deterministically.

    Jobs are read in index order and the ``results``/``summary``
    sections depend only on job *results*, never on scheduling — a
    parallel sweep aggregates to exactly the same content as a serial
    one.  Wall-clock and retry bookkeeping live under ``execution``.
    """
    manifest = _load_manifest(out_dir)
    results: List[dict] = []
    failed: List[int] = []
    attempts: Dict[str, int] = {}
    retried: List[int] = []
    wall_total = 0.0
    for entry in sorted(manifest["jobs"], key=lambda e: e["index"]):
        index = entry["index"]
        attempts[str(index)] = entry.get("attempts", 0)
        if entry.get("attempts", 0) > 1:
            retried.append(index)
        wall_total += entry.get("wall_s", 0.0) or 0.0
        if entry.get("status") != "done":
            failed.append(index)
            continue
        path = _job_path(out_dir, index)
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SweepError(f"cannot read job result {path!r}: {exc}") from exc
        results.append(
            {
                "index": index,
                "params": doc.get("params", entry.get("params")),
                "seed": doc.get("seed", entry.get("seed")),
                "result": doc.get("result", {}),
            }
        )

    spec = manifest.get("spec", {})
    goodputs = [
        r["result"].get("goodput_gbps", 0.0) for r in results if r.get("result")
    ]
    summary = {
        "jobs": len(manifest["jobs"]),
        "completed": len(results),
        "failed": sorted(failed),
        "total_events": sum(r["result"].get("events", 0) for r in results),
        "total_flows": sum(r["result"].get("flows", 0) for r in results),
        "mean_goodput_gbps": (
            round(sum(goodputs) / len(goodputs), 6) if goodputs else 0.0
        ),
    }
    return {
        "name": manifest.get("name", "sweep"),
        "manifest_version": manifest.get("manifest_version", MANIFEST_VERSION),
        "grid": spec.get("grid", {}),
        "results": results,
        "summary": summary,
        "execution": {
            "attempts": attempts,
            "retried": sorted(retried),
            "wall_time_s_total": round(wall_total, 4),
        },
    }
