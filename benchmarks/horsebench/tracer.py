"""Span tracing installed from the benchmark's own files.

The traced run wraps the public entry points of each simulator layer
with a timing wrapper *before* ``Horse`` is built.  Every call records
one span — (name, start, end, parent) — in memory; nothing is written
until the run has ended.  A layer's self time is its spans' duration
minus the part their child spans cover, and a layer's **share** is its
self time inside the root span (``Simulator.run``) divided by the root
span's duration.  Nothing runs in parallel, so the shares partition the
root span: they sum to one.

Two kinds of wrap target:

* ``TARGETS`` — named methods, each booked to one bucket.  They are
  looked up by name when tracing starts; one that no longer exists is
  listed in ``Tracer.missing`` and its bucket reports no time, so a
  later PR that deletes or merges a class never crashes the benchmark.
* every ``Event`` subclass's ``fire`` — the boundary where the kernel
  hands control to a layer.  A fire span is booked to the layer that
  owns the callback's module (``MODULE_BUCKETS``); callback code in a
  module no layer claims is the run's *unattributed* time.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: (bucket, module, class, method).  The first entry is the root span.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim.dispatch", "repro.sim.kernel", "Simulator", "run"),
    ("sim.queue", "repro.sim.kernel", "Simulator", "schedule"),
    ("sim.queue", "repro.sim.kernel", "Simulator", "reschedule"),
    ("sim.queue", "repro.sim.kernel", "Simulator", "cancel"),
    ("engine", "repro.flowsim.engine", "FlowLevelEngine", "on_arrival"),
    ("engine", "repro.flowsim.engine", "FlowLevelEngine", "on_completion"),
    ("engine", "repro.flowsim.engine", "FlowLevelEngine", "on_end"),
    ("engine", "repro.flowsim.engine", "FlowLevelEngine", "on_link_state"),
    ("engine", "repro.flowsim.engine", "FlowLevelEngine", "on_reroute_sweep"),
    ("engine", "repro.flowsim.engine", "FlowLevelEngine", "notify_rules_changed"),
    ("engine", "repro.flowsim.engine", "FlowLevelEngine", "sync_statistics"),
    ("solve", "repro.flowsim.fairshare", "IncrementalSolver", "resolve"),
    ("solve.index", "repro.flowsim.fairshare", "IncrementalSolver", "upsert"),
    ("solve.index", "repro.flowsim.fairshare", "IncrementalSolver", "remove"),
    ("openflow.process", "repro.openflow.switch", "OpenFlowPipeline", "process"),
    ("openflow.mod", "repro.openflow.switch", "OpenFlowPipeline", "install"),
    ("openflow.mod", "repro.openflow.switch", "OpenFlowPipeline", "expire"),
    ("openflow.mod", "repro.openflow.flowtable", "FlowTable", "add"),
    ("openflow.mod", "repro.openflow.flowtable", "FlowTable", "delete"),
    ("control", "repro.control.channel", "ControlChannel", "send"),
    ("control", "repro.control.channel", "ControlChannel", "deliver_packet_in"),
    ("control", "repro.control.channel", "ControlChannel", "deliver_flow_removed_entry"),
    ("control", "repro.control.channel", "ControlChannel", "deliver_port_status"),
    ("control", "repro.control.channel", "ControlChannel", "port_stats"),
    ("control", "repro.control.channel", "ControlChannel", "flow_stats"),
    ("control", "repro.control.channel", "ControlChannel", "push_counters"),
    ("control.compile", "repro.core.simulator", "Horse", "start_control_plane"),
    ("stats", "repro.stats.collector", "RunStatsCollector", "sample_links"),
    ("stats", "repro.stats.collector", "RunStatsCollector", "harvest_flows"),
    ("stats", "repro.control.monitor", "NetworkMonitor", "sample_now"),
    ("pktsim", "repro.pktsim.engine", "PacketLevelEngine", "inject"),
    ("pktsim", "repro.pktsim.engine", "PacketLevelEngine", "source_finished"),
)

#: Modules whose ``Event`` subclasses get their ``fire`` wrapped; the
#: first one defines ``Event``.
EVENT_MODULES = ("repro.sim.event", "repro.flowsim.events")

#: Longest-prefix map from a callback's module to the bucket its fire
#: span is booked to.  The monitor is the statistics layer's poller.
MODULE_BUCKETS: Tuple[Tuple[str, str], ...] = (
    ("repro.flowsim.fairshare", "solve"),
    ("repro.flowsim", "engine"),
    ("repro.openflow", "openflow.mod"),
    ("repro.control.monitor", "stats"),
    ("repro.control", "control"),
    ("repro.stats", "stats"),
    ("repro.pktsim", "pktsim"),
    ("repro.sim", "sim.dispatch"),
)
UNATTRIBUTED = "unattributed"

#: Every bucket whose share of the root span is reported.
SHARE_BUCKETS = (
    "sim.dispatch", "sim.queue", "engine", "solve", "solve.index",
    "openflow.process", "openflow.mod", "control", "stats", "pktsim",
    UNATTRIBUTED,
)


def _bucket_for_module(module: Optional[str]) -> str:
    for prefix, bucket in MODULE_BUCKETS:
        if module and (module == prefix or module.startswith(prefix + ".")):
            return bucket
    return UNATTRIBUTED


class Tracer:
    """Records spans while installed; analyse with :meth:`summary`."""

    def __init__(self) -> None:
        self.names: List[Tuple[str, str]] = []   # span-name id -> (bucket, label)
        self._name_ids: Dict[Tuple[str, str], int] = {}
        self.name_of = array("i")           # per span: name id
        self.parent_of = array("i")         # per span: parent span or -1
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._originals: List[Tuple[type, str, Callable]] = []
        #: Wrap targets that were not found at install time.
        self.missing: List[str] = []
        #: Largest ``len(table)`` seen right after a ``FlowTable.add``.
        self.entries_peak = 0

    # ------------------------------------------------------------------
    def _name_id(self, bucket: str, label: str) -> int:
        key = (bucket, label)
        ident = self._name_ids.get(key)
        if ident is None:
            ident = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return ident

    def _wrap(self, fn: Callable, name_id: Optional[int]) -> Callable:
        """The timing wrapper.  ``name_id`` None marks an event ``fire``
        whose bucket depends on the callback it carries."""
        name_of, parent_of = self.name_of, self.parent_of
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter
        by_module: Dict[Optional[str], int] = {}
        tracer = self

        def fire_name(event) -> int:
            callback = getattr(event, "callback", None)
            module = getattr(callback, "__module__", None)
            ident = by_module.get(module)
            if ident is None:
                ident = by_module[module] = tracer._name_id(
                    _bucket_for_module(module), f"fire:{module}"
                )
            return ident

        def wrapper(*args, **kwargs):
            index = len(name_of)
            name_of.append(name_id if name_id is not None else fire_name(args[0]))
            parent_of.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = begin
                ends[index] = end

        return wrapper

    def _patch(self, owner: type, attr: str, wrapper: Callable) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for bucket, module_name, class_name, method in TARGETS:
            label = f"{class_name}.{method}"
            try:
                owner = getattr(importlib.import_module(module_name), class_name)
                fn = owner.__dict__[method]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{label}")
                continue
            wrapper = self._wrap(fn, self._name_id(bucket, label))
            if label == "FlowTable.add":
                wrapper = self._with_entries_peak(wrapper)
            self._patch(owner, method, wrapper)
        for module_name in EVENT_MODULES:
            try:
                base = importlib.import_module(EVENT_MODULES[0]).Event
                module = importlib.import_module(module_name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:Event.fire")
                continue
            for owner in vars(module).values():
                if (
                    isinstance(owner, type)
                    and issubclass(owner, base)
                    and "fire" in owner.__dict__
                    and owner is not base
                ):
                    if hasattr(owner, "callback"):
                        name_id = None
                    else:
                        name_id = self._name_id(
                            _bucket_for_module(owner.__module__),
                            f"fire:{owner.__name__}",
                        )
                    self._patch(
                        owner, "fire", self._wrap(owner.__dict__["fire"], name_id)
                    )

    def _with_entries_peak(self, wrapper: Callable) -> Callable:
        def add(table, *args, **kwargs):
            result = wrapper(table, *args, **kwargs)
            if len(table) > self.entries_peak:
                self.entries_peak = len(table)
            return result

        return add

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Per-name and per-bucket totals of the recorded spans.

        Returns ``root_s`` (total root-span time), ``buckets`` (bucket ->
        self seconds inside the root), ``names`` (label -> count, total
        and self seconds inside the root), ``outside`` (label -> total
        seconds of spans outside any root span, i.e. during set-up) and
        ``self_sum_s`` (all self time inside the root; equals ``root_s``
        up to float rounding).
        """
        n = len(self.name_of)
        name_of = np.asarray(self.name_of, dtype=np.intc)
        parent_of = np.asarray(self.parent_of, dtype=np.intc)
        starts = np.asarray(self.starts, dtype=np.float64)
        ends = np.asarray(self.ends, dtype=np.float64)
        duration = ends - starts
        has_parent = parent_of >= 0
        covered = np.bincount(
            parent_of[has_parent], weights=duration[has_parent], minlength=n
        )
        self_time = duration - covered

        buckets = [bucket for bucket, _ in self.names]
        labels = [label for _, label in self.names]
        root_ids = [
            i for i, label in enumerate(labels) if label == "Simulator.run"
        ]
        is_root = np.isin(name_of, root_ids) & ~has_parent
        inside = np.zeros(n, dtype=bool)
        for begin, end in zip(starts[is_root], ends[is_root]):
            inside |= (starts >= begin) & (ends <= end)

        k = len(self.names)
        count = np.bincount(name_of[inside], minlength=k)
        total = np.bincount(name_of[inside], weights=duration[inside], minlength=k)
        own = np.bincount(name_of[inside], weights=self_time[inside], minlength=k)
        outside = np.bincount(name_of[~inside], weights=duration[~inside], minlength=k)

        bucket_self: Dict[str, float] = {}
        names: Dict[str, dict] = {}
        outside_by_label: Dict[str, float] = {}
        for i in range(k):
            bucket_self[buckets[i]] = bucket_self.get(buckets[i], 0.0) + float(own[i])
            names[labels[i]] = {
                "count": int(count[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
            }
            if outside[i]:
                outside_by_label[labels[i]] = float(outside[i])
        return {
            "spans": int(n),
            "root_s": float(duration[is_root].sum()),
            "self_sum_s": float(self_time[inside].sum()),
            "buckets": bucket_self,
            "names": names,
            "outside": outside_by_label,
            "entries_peak": self.entries_peak,
            "missing_targets": list(self.missing),
        }

    def write_spans(self, path: str) -> None:
        """Dump the raw spans as CSV: name,start,end,parent."""
        with open(path, "w") as handle:
            handle.write("name,start_s,end_s,parent\n")
            for i in range(len(self.name_of)):
                handle.write(
                    f"{self.names[self.name_of[i]][1]},{self.starts[i]!r},"
                    f"{self.ends[i]!r},{self.parent_of[i]}\n"
                )
