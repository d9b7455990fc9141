"""Command-line interface: run scenarios, sweeps, and topologies.

Subcommands::

    python -m repro topo --kind fat-tree --k 4 --out topo.json
    python -m repro info topo.json
    python -m repro run scenario.json --flows-csv flows.csv --json run.json
    python -m repro run scenario.json --checkpoint state.ckpt
    python -m repro run --restore state.ckpt --json run.json
    python -m repro run scenario.json --trace run.trace.jsonl --metrics metrics.prom
    python -m repro trace record scenario.json --out run.trace.jsonl
    python -m repro trace summarize run.trace.jsonl
    python -m repro sweep sweep.json --out DIR --workers 4
    python -m repro resume DIR

A *scenario* is one JSON document describing topology, policies,
traffic, engine, and runtime knobs — everything a run needs, so
experiments are shareable files rather than scripts (schema in
:mod:`repro.runtime.scenario`).  A *sweep spec* adds a parameter grid
and pool settings on top of a base scenario (schema in
:mod:`repro.runtime.sweep`).

``run``, ``serve`` and ``trace record`` all do the same thing with a
scenario file: load it as a v1 document, apply the command line's
overrides as edits of that document, and hand it to
:func:`repro.runtime.scenario.run_scenario`.  Every flag that changes
what is simulated is a row of :data:`OVERRIDES` — (flag, dotted
document path, ...) — so a flag, a sweep grid axis and a key written in
the file by hand are the same edit; a new flag is a new row.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Dict, List, NamedTuple, Optional, Tuple

from .core import Horse
from .errors import ExperimentError, HorseError
from .net.io import load_topology, save_topology
from .runtime.scenario import (
    build_horse,
    build_topology as _build_topology,
    reset_id_counters,
    run_scenario,
)
from .runtime.schema import (
    SCHEMA_VERSION,
    load_scenario,
    migrate_scenario,
    set_dotted,
    validate_scenario,
)
from .stats.export import flows_to_csv, result_to_json, run_digest, summary_text


class Override(NamedTuple):
    """A flag that edits the scenario document: ``--flag VALUE`` applies
    the constant edits in ``implies``, then sets ``path`` to ``VALUE``."""

    flag: str
    path: str
    type: object  # str, int, float, or a tuple of choices
    help: str
    metavar: Optional[str] = None
    implies: Tuple[Tuple[str, object], ...] = ()
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


_UNTIL = Override("--until", "until", float,
                  "stop at this simulated time (seconds)")

#: Subcommand -> its document-editing flags, in the order they apply.
OVERRIDES: Dict[str, Tuple[Override, ...]] = {
    "run": (
        _UNTIL,
        Override("--checkpoint", "checkpoint.path", str,
                 "checkpoint the simulation state here (at the end, or "
                 "periodically with --checkpoint-interval)", "PATH"),
        Override("--checkpoint-interval", "checkpoint.interval_s", float,
                 "simulated seconds between periodic checkpoints", "SECONDS"),
        Override("--trace", "telemetry.trace_path", str,
                 "record a structured JSONL trace of the run here", "PATH"),
        Override("--hybrid-select", "hybrid.select", str,
                 "run selected flows at packet granularity (hybrid engine): "
                 "none, all, top:K, or match:field=value[,...]", "SPEC",
                 implies=(("engine", "hybrid"),)),
        Override("--hybrid-sync-interval", "hybrid.sync_interval_s", float,
                 "hybrid foreground/background coupling cadence", "SECONDS"),
        Override("--control", "control", ("inproc", "wire"),
                 "control-plane transport (overrides the scenario)"),
        Override("--wire-client", "wire.client", ("learning", "static"),
                 "run the built-in wire controller against this run's own "
                 "listener (implies --control wire)",
                 implies=(("control", "wire"),)),
        Override("--wire-listen", "wire.listen", str,
                 "wire control listen address (port 0 picks a free port)",
                 "HOST:PORT"),
    ),
    "serve": (
        Override("--listen", "wire.listen", str,
                 "listen address (default from the scenario, else "
                 "127.0.0.1:0)", "HOST:PORT"),
        _UNTIL,
        Override("--budget", "wire.latency_budget_s", float,
                 "wall-clock budget for controller connect/answers "
                 "(wire.latency_budget_s)", "SECONDS"),
        Override("--dilation", "wire.dilation", float,
                 "simulated seconds charged per wall second of controller "
                 "thinking time (0 = synchronous)", "FACTOR"),
    ),
    "trace record": (
        Override("--out", "telemetry.trace_path", str,
                 "JSONL trace output path", required=True),
        _UNTIL,
    ),
}

#: The overrides `run --restore` still honours: it has no document to
#: edit, so cmd_run applies these two to the restored horse itself.
_RESTORE_FLAGS = ("--until", "--trace")


def _add_overrides(parser: argparse.ArgumentParser, command: str) -> None:
    for row in OVERRIDES[command]:
        if isinstance(row.type, tuple):
            kind = {"choices": row.type}
        else:
            kind = {"type": row.type, "metavar": row.metavar}
        parser.add_argument(
            row.flag, help=row.help, required=row.required, **kind
        )


def override_edits(
    args: argparse.Namespace, rows: Tuple[Override, ...]
) -> List[Tuple[str, object]]:
    """The ``(dotted path, value)`` document edits of the flags given on
    the command line.  A flag is given when its value is not None, so a
    zero reaches the validator like a zero written in the file."""
    edits: List[Tuple[str, object]] = []
    for row in rows:
        value = getattr(args, row.dest)
        if value is not None:
            edits.extend(row.implies)
            edits.append((row.path, value))
    return edits


def _load(args: argparse.Namespace, command: str, edits=()) -> dict:
    """The scenario file as a v1 document, edited first by the command's
    own constant ``edits``, then by its override flags."""
    document = load_scenario(args.scenario)
    for path, value in (*edits, *override_edits(args, OVERRIDES[command])):
        set_dotted(document, path, value)
    return document


def _print_submitted(path: str, horse: Horse, count: int) -> None:
    """``before_run`` (with ``path`` bound): say what was built before a
    long run starts."""
    print(f"scenario: {path} ({count} flows submitted)", flush=True)


def _close_trace(horse: Horse) -> None:
    bus = horse.telemetry.trace
    emitted = bus.emitted
    horse.telemetry.disable_tracing()
    if bus.path:
        print(f"wrote {emitted + 1} trace records to {bus.path}")


def cmd_run(args: argparse.Namespace) -> int:
    if args.restore:
        if args.scenario:
            raise ExperimentError(
                "pass a scenario file or --restore, not both"
            )
        refused = [
            row.flag
            for row in OVERRIDES["run"]
            if row.flag not in _RESTORE_FLAGS
            and getattr(args, row.dest) is not None
        ]
        if refused:
            raise ExperimentError(
                f"{', '.join(refused)} edit a scenario document; a restored "
                "run has none, so --restore cannot honour them"
            )
        reset_id_counters()
        horse = Horse.restore(args.restore)
        print(f"restored checkpoint: {args.restore} (t={horse.sim.now:g} s)")
        until = args.until if args.until is not None else horse.last_until
        if until is not None and until <= horse.sim.now:
            raise ExperimentError(
                f"the restored run would end at t={until:g} s, not after the "
                f"checkpoint (t={horse.sim.now:g} s), so nothing would run; "
                f"--until T with T later than {horse.sim.now:g} continues it"
            )
        if args.trace:
            horse.telemetry.enable_tracing(args.trace)
        try:
            result = horse.run(until=until)
        finally:
            horse.shutdown_wire()
    else:
        if not args.scenario:
            raise ExperimentError("a scenario file (or --restore) is required")
        horse, result, _count = run_scenario(
            _load(args, "run"),
            before_run=partial(_print_submitted, args.scenario),
        )
        if args.checkpoint and args.checkpoint_interval is None:
            # No periodic ticker: snapshot the final state explicitly.
            horse.checkpoint(args.checkpoint)
            print(f"wrote checkpoint to {args.checkpoint}")
    print(summary_text(result))
    if args.check_digest:
        digest = run_digest(result)
        expected = args.check_digest
        if expected == "@golden":
            if not args.scenario:
                raise ExperimentError(
                    "--check-digest without a value needs a scenario file "
                    "(golden digests are looked up next to it)"
                )
            import os

            golden_path = os.path.join(
                os.path.dirname(os.path.abspath(args.scenario)),
                "GOLDEN_DIGESTS.json",
            )
            with open(golden_path) as handle:
                goldens = json.load(handle)
            key = os.path.basename(args.scenario)
            if key not in goldens:
                raise ExperimentError(
                    f"no golden digest for {key!r} in {golden_path}"
                )
            expected = goldens[key]
        if digest != expected:
            print(f"digest MISMATCH: got {digest}, expected {expected}",
                  file=sys.stderr)
            return 3
        print(f"digest OK: {digest}")
    if args.flows_csv:
        rows = flows_to_csv(result, args.flows_csv)
        print(f"wrote {rows} flow records to {args.flows_csv}")
    if args.json:
        result_to_json(result, args.json)
        print(f"wrote run document to {args.json}")
    if args.metrics:
        with open(args.metrics, "w") as handle:
            handle.write(horse.telemetry.prometheus())
        print(f"wrote metrics exposition to {args.metrics}")
    if horse.telemetry.tracing_enabled:
        _close_trace(horse)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a scenario as an OpenFlow 1.3 datapath agent: listen for an
    external controller, then simulate against it."""
    # serve = an external controller is coming: no built-in client.
    document = _load(
        args, "serve", edits=(("control", "wire"), ("wire.client", None))
    )

    def before_run(horse: Horse, count: int) -> None:
        def announce(address):
            host, port = address
            print(f"listening on {host}:{port} "
                  f"({len(horse.topology.switches)} datapaths)", flush=True)

        horse.wire.on_listening = announce
        _print_submitted(args.scenario, horse, count)

    horse, result, _count = run_scenario(document, before_run=before_run)
    print(summary_text(result))
    metrics = horse.telemetry.snapshot()
    print(f"wire.active_connections "
          f"{metrics.get('wire.active_connections', 0):g}")
    if args.json:
        result_to_json(result, args.json)
        print(f"wrote run document to {args.json}")
    return 0


def cmd_wire_client(args: argparse.Namespace) -> int:
    """Run the built-in wire controller against a ``repro serve``."""
    from .wire import WireControllerClient

    host, _, port = args.address.rpartition(":")
    if not host:
        raise ExperimentError(
            f"address must be 'host:port', got {args.address!r}"
        )
    routes = None
    if args.routes:
        with open(args.routes) as handle:
            routes = json.load(handle)
    client = WireControllerClient(
        host,
        int(port),
        mode=args.mode,
        routes=routes,
        connect_timeout_s=args.connect_timeout,
    )
    dpids = client.connect()
    print(f"connected to {args.address}: datapaths {dpids}", flush=True)
    try:
        client.serve()
    except KeyboardInterrupt:
        pass
    finally:
        client.close()
    for key, value in sorted(client.stats.items()):
        print(f"client.{key} {value}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Record, inspect, or summarize a structured JSONL trace."""
    from .telemetry import read_trace, summarize_trace

    if args.trace_command == "record":
        horse, _result, _count = run_scenario(
            _load(args, "trace record"),
            before_run=partial(_print_submitted, args.scenario),
        )
        _close_trace(horse)
        return 0

    records = read_trace(args.trace_file)
    if args.trace_command == "inspect":
        shown = 0
        for record in records:
            if args.kind and record.get("kind") != args.kind:
                continue
            print(json.dumps(record, sort_keys=True))
            shown += 1
            if args.limit and shown >= args.limit:
                break
        return 0

    # summarize
    summary = summarize_trace(records)
    t_range = summary["sim_time"]
    print(f"records  : {summary['records']}")
    if t_range["min"] is not None:
        print(f"sim time : {t_range['min']:g} .. {t_range['max']:g} s")
    print(f"{'kind':32s} {'count':>8s} {'wall_dur_s':>12s} {'share':>8s}")
    for kind, entry in summary["kinds"].items():
        share = "-" if entry["share"] is None else f"{entry['share']:.4f}"
        print(f"{kind:32s} {entry['count']:8d} {entry['wall_dur_s']:12.6f} {share:>8s}")
    return 0


def _sweep_progress(kind: str, index: int, attempt: int, detail: str) -> None:
    if kind == "start":
        print(f"job {index:4d} attempt {attempt} started")
    elif kind == "ok":
        print(f"job {index:4d} done")
    elif kind in ("crash", "timeout"):
        print(f"job {index:4d} attempt {attempt} {kind}: {detail}")
    elif kind == "retry":
        print(f"job {index:4d} retrying (attempt {attempt}) {detail}")
    elif kind == "failed":
        print(f"job {index:4d} FAILED: {detail}")


def _report_exit(report: dict, out_dir: str) -> int:
    summary = report["summary"]
    print(
        f"sweep '{report['name']}': {summary['completed']}/{summary['jobs']} "
        f"jobs completed -> {out_dir}/report.json"
    )
    if summary["failed"]:
        print(f"failed jobs: {summary['failed']}", file=sys.stderr)
        return 2
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .runtime.sweep import SweepSpec, run_sweep

    spec = SweepSpec.from_file(args.spec)
    report = run_sweep(
        spec,
        args.out,
        workers=args.workers,
        on_event=None if args.quiet else _sweep_progress,
    )
    return _report_exit(report, args.out)


def cmd_resume(args: argparse.Namespace) -> int:
    from .runtime.sweep import resume_sweep

    report = resume_sweep(
        args.dir,
        workers=args.workers,
        on_event=None if args.quiet else _sweep_progress,
    )
    return _report_exit(report, args.dir)


def cmd_analyze(args: argparse.Namespace) -> int:
    """Statically verify the forwarding state a scenario would install."""
    from .analysis import analyze_network

    # The simulation `repro run` would build from this file: same
    # migration, same validation, same pipeline shape.
    horse, _fabric = build_horse(load_scenario(args.scenario))
    if horse.wire is not None:
        raise ExperimentError(
            "analyze verifies what an in-process controller installs "
            "proactively; with control='wire' the controller is on the "
            "other end of a connection"
        )
    topology = horse.topology
    horse.start_control_plane()
    # Failures are applied *after* proactive install, so rules that
    # predate the failure go stale — exactly the defect class the
    # analyzer exists to catch.
    for a, b in args.fail_link or []:
        topology.fail_link(a, b)
        print(f"failed link {a} <-> {b}")
    report = analyze_network(
        topology,
        specs=horse.compiled.specs if horse.compiled else None,
        ingress=args.ingress,
    )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote analysis report to {args.json}")
    if args.sarif:
        with open(args.sarif, "w") as handle:
            json.dump(report.to_sarif(), handle, indent=2)
            handle.write("\n")
        print(f"wrote SARIF report to {args.sarif}")
    print(report.summary_text())
    # The exit status gates only under --strict; otherwise findings flow
    # to the JSON/SARIF report and whoever reads it does the gating.
    return 1 if (args.strict and not report.ok) else 0


def cmd_migrate_scenario(args: argparse.Namespace) -> int:
    """Rewrite a legacy (v0) scenario document to schema v1."""
    with open(args.scenario) as handle:
        doc = json.load(handle)
    # A sweep spec: the scenario lives under "base"; the top-level
    # "runtime" section is the pool's (retries/backoff/workers).
    prefix = "base." if "grid" in doc and "base" in doc else ""
    scenario = doc["base"] if prefix else doc
    migrated, moves = migrate_scenario(scenario)
    validate_scenario(migrated)
    if prefix:
        migrated = {**doc, "base": migrated}
    text = json.dumps(migrated, indent=2) + "\n"
    for old, section, field in moves:
        print(f"  {prefix}{old} -> {section}.{field}", file=sys.stderr)
    if scenario.get("schema_version", 0) == SCHEMA_VERSION:
        print(f"{args.scenario}: already at schema v{SCHEMA_VERSION}",
              file=sys.stderr)
    else:
        print(f"  {prefix}schema_version -> {SCHEMA_VERSION}", file=sys.stderr)
    if args.in_place:
        with open(args.scenario, "w") as handle:
            handle.write(text)
        print(f"rewrote {args.scenario}", file=sys.stderr)
    elif args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


#: ``repro topo`` options copied into the topology spec when given.
_TOPO_SPEC_KEYS = (
    "k", "pods", "hosts_per_pod", "members", "switches", "hosts", "seed",
)


def cmd_topo(args: argparse.Namespace) -> int:
    spec = {"kind": args.kind}
    for key in _TOPO_SPEC_KEYS:
        value = getattr(args, key)
        if value is not None:
            spec[key] = value
    topology, _ = _build_topology(spec)
    save_topology(topology, args.out)
    print(f"wrote {topology.summary()} to {args.out}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    topology = load_topology(args.topology)
    summary = topology.summary()
    print(f"name     : {summary['name']}")
    print(f"hosts    : {summary['hosts']}")
    print(f"switches : {summary['switches']}")
    print(f"links    : {summary['links']}")
    print(f"capacity : {summary['total_capacity_bps'] / 1e9:.3g} Gb/s total")
    degree = {}
    for node in topology.nodes:
        degree[node.name] = len(node.connected_ports)
    hubs = sorted(degree.items(), key=lambda kv: -kv[1])[:5]
    print("highest-degree nodes:")
    for name, deg in hubs:
        print(f"  {name}: {deg} links")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Horse: flow-level SDN traffic dynamics simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file (or a checkpoint)")
    run_p.add_argument(
        "scenario", nargs="?", help="scenario JSON path (omit with --restore)"
    )
    run_p.add_argument("--flows-csv", help="write per-flow records here")
    run_p.add_argument("--json", help="write the full run document here")
    run_p.add_argument(
        "--restore",
        metavar="PATH",
        help="resume from a checkpoint instead of building a scenario",
    )
    run_p.add_argument(
        "--metrics",
        metavar="PATH",
        help="write a Prometheus-style metrics exposition here at the end",
    )
    run_p.add_argument(
        "--check-digest",
        nargs="?",
        const="@golden",
        metavar="SHA256",
        help="verify the run's content digest: against the given value, "
        "or (with no value) against GOLDEN_DIGESTS.json next to the "
        "scenario file; mismatch exits 3",
    )
    _add_overrides(run_p, "run")
    run_p.set_defaults(func=cmd_run)

    serve_p = sub.add_parser(
        "serve",
        help="run a scenario as an OpenFlow 1.3 datapath agent for an "
        "external controller",
    )
    serve_p.add_argument("scenario", help="scenario JSON path")
    _add_overrides(serve_p, "serve")
    serve_p.add_argument("--json", help="write the full run document here")
    serve_p.set_defaults(func=cmd_serve)

    client_p = sub.add_parser(
        "wire-client",
        help="run the built-in wire controller against a repro serve",
    )
    client_p.add_argument("address", help="server address, host:port")
    client_p.add_argument(
        "--mode",
        choices=["learning", "static"],
        default="learning",
        help="controller behavior (default: learning switch)",
    )
    client_p.add_argument(
        "--routes",
        metavar="PATH",
        help="static mode: JSON file with route dicts",
    )
    client_p.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-connection handshake timeout",
    )
    client_p.set_defaults(func=cmd_wire_client)

    trace_p = sub.add_parser(
        "trace", help="record, inspect, or summarize a structured trace"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    record_p = trace_sub.add_parser(
        "record", help="run a scenario with tracing enabled"
    )
    record_p.add_argument("scenario", help="scenario JSON path")
    _add_overrides(record_p, "trace record")
    record_p.set_defaults(func=cmd_trace)
    inspect_p = trace_sub.add_parser(
        "inspect", help="print trace records as JSON lines"
    )
    inspect_p.add_argument("trace_file", help="JSONL trace path")
    inspect_p.add_argument("--kind", help="only records of this kind")
    inspect_p.add_argument(
        "--limit", type=int, help="stop after this many records"
    )
    inspect_p.set_defaults(func=cmd_trace)
    summarize_p = trace_sub.add_parser(
        "summarize", help="aggregate counts and wall time per record kind"
    )
    summarize_p.add_argument("trace_file", help="JSONL trace path")
    summarize_p.set_defaults(func=cmd_trace)

    # What `sweep` and `resume` both say about the pool they run on.
    pool_flags = argparse.ArgumentParser(add_help=False)
    pool_flags.add_argument(
        "--workers", type=int, help="pool size (overrides the spec)"
    )
    pool_flags.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )

    sweep_p = sub.add_parser(
        "sweep",
        parents=[pool_flags],
        help="expand and run a parameter sweep on a worker pool",
    )
    sweep_p.add_argument("spec", help="sweep spec JSON path")
    sweep_p.add_argument("--out", required=True, help="sweep output directory")
    sweep_p.set_defaults(func=cmd_sweep)

    resume_p = sub.add_parser(
        "resume",
        parents=[pool_flags],
        help="re-run only the unfinished jobs of a sweep directory",
    )
    resume_p.add_argument("dir", help="sweep output directory (with manifest.json)")
    resume_p.set_defaults(func=cmd_resume)

    an_p = sub.add_parser(
        "analyze",
        help="statically verify the forwarding state a scenario installs",
    )
    an_p.add_argument("scenario", help="scenario JSON path")
    an_p.add_argument(
        "--fail-link",
        nargs=2,
        action="append",
        metavar=("A", "B"),
        help="bring a link down after rule install (repeatable)",
    )
    an_p.add_argument(
        "--ingress",
        choices=["edge", "all"],
        default="edge",
        help="inject classes at host-facing ports only (edge) or all ports",
    )
    an_p.add_argument("--json", help="write the structured report here")
    an_p.add_argument("--sarif", help="write a SARIF 2.1.0 report here")
    an_p.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when the report has findings (default: exit 0 "
        "and leave the gating to the report's reader)",
    )
    an_p.set_defaults(func=cmd_analyze)

    mig_p = sub.add_parser(
        "migrate-scenario",
        help="rewrite a legacy (v0) scenario file to schema v1",
    )
    mig_p.add_argument("scenario", help="scenario JSON path")
    mig_p.add_argument(
        "--out", metavar="PATH", help="write here instead of stdout"
    )
    mig_p.add_argument(
        "--in-place",
        action="store_true",
        help="overwrite the input file",
    )
    mig_p.set_defaults(func=cmd_migrate_scenario)

    topo_p = sub.add_parser("topo", help="generate a topology file")
    topo_p.add_argument(
        "--kind",
        required=True,
        choices=["fat-tree", "leaf-spine", "linear", "star", "pods", "ixp"],
    )
    topo_p.add_argument("--k", type=int, help="fat-tree arity")
    topo_p.add_argument("--pods", type=int, help="pod count (kind=pods)")
    topo_p.add_argument(
        "--hosts-per-pod", type=int, help="hosts per pod (kind=pods)"
    )
    topo_p.add_argument("--members", type=int, help="IXP member count")
    topo_p.add_argument("--switches", type=int, help="linear chain length")
    topo_p.add_argument("--hosts", type=int, help="star host count")
    topo_p.add_argument("--seed", type=int)
    topo_p.add_argument("--out", required=True, help="output JSON path")
    topo_p.set_defaults(func=cmd_topo)

    info_p = sub.add_parser("info", help="describe a topology file")
    info_p.add_argument("topology", help="topology JSON path")
    info_p.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HorseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
