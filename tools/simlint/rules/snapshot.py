"""Snapshot-safety rules (SNAP...).

Checkpoint/restore pickles the whole ``Horse`` object graph.  Two
static properties keep that contract honest:

* no object reachable from the graph may hold an unpicklable attribute
  (lambda, open handle, lock, live generator) unless the class scrubs
  it in ``__getstate__``/``__reduce__``;
* every process-global id counter needs watermark plumbing (a
  ``reset_*`` rewind for sweep-job isolation and an ``advance_*`` bump
  for restore), or ids allocated after a restore collide with restored
  objects.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..context import ModuleContext
from ..rule import LintFinding, Rule

#: Constructors whose results never survive a pickle round trip.
UNPICKLABLE_CALLS = {
    "threading.Lock": "a lock",
    "threading.RLock": "a lock",
    "threading.Condition": "a condition variable",
    "threading.Event": "a threading event",
    "threading.Semaphore": "a semaphore",
    "threading.BoundedSemaphore": "a semaphore",
    "multiprocessing.Lock": "a lock",
    "multiprocessing.RLock": "a lock",
}


def _class_defines(cls: ast.ClassDef, *names: str) -> bool:
    return any(
        isinstance(node, ast.FunctionDef) and node.name in names
        for node in cls.body
    )


class UnpicklableAttributeRule(Rule):
    id = "SNAP001"
    description = (
        "instance attribute holds an unpicklable value (lambda, open "
        "handle, lock, generator); checkpointing the object graph will "
        "fail — scrub it in __getstate__ or store picklable state"
    )
    #: The packages whose classes are reachable from the Horse snapshot
    #: graph (runtime/pool infrastructure lives outside the graph).
    scopes = (
        "sim",
        "flowsim",
        "pktsim",
        "openflow",
        "net",
        "control",
        "stats",
        "telemetry",
        "core",
        "traffic",
        "ixp",
        "wire",
    )

    def check(self, module: ModuleContext) -> Iterator[LintFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            what = self._unpicklable(module, node.value)
            if what is None:
                continue
            cls = module.enclosing_class(node)
            if cls is not None and _class_defines(
                cls, "__getstate__", "__reduce__", "__reduce_ex__"
            ):
                # The class already owns its pickling story.
                continue
            yield self.finding(
                module,
                node.lineno,
                f"self.{target.attr} holds {what}, which does not "
                f"survive checkpoint pickling; scrub it in __getstate__ "
                f"or keep picklable state",
                column=node.col_offset,
            )

    @staticmethod
    def _unpicklable(
        module: ModuleContext, value: ast.expr
    ) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.GeneratorExp):
            return "a live generator"
        if isinstance(value, ast.Call):
            if isinstance(value.func, ast.Name) and value.func.id == "open":
                return "an open file handle"
            if isinstance(value.func, ast.Name) and value.func.id == "iter":
                return "a live iterator"
            origin = module.imports.resolve_call(value.func)
            if origin in UNPICKLABLE_CALLS:
                return UNPICKLABLE_CALLS[origin]
        return None


class CounterWatermarkRule(Rule):
    id = "SNAP002"
    description = (
        "module-level itertools.count() id counter lacks watermark "
        "plumbing (reset_* + advance_* functions); restored runs would "
        "reuse ids of restored objects"
    )

    def check(self, module: ModuleContext) -> Iterator[LintFinding]:
        counters = []
        for node in module.tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if (
                isinstance(value, ast.Call)
                and module.imports.resolve_call(value.func)
                == "itertools.count"
            ):
                counters.append((target.id, node))
        if not counters:
            return
        resets, advances = self._watermark_functions(module)
        for name, node in counters:
            missing = []
            if name not in resets:
                missing.append("reset_*")
            if name not in advances:
                missing.append("advance_*")
            if missing:
                yield self.finding(
                    module,
                    node.lineno,
                    f"id counter {name} has no {' / '.join(missing)} "
                    f"watermark function; sweep isolation and checkpoint "
                    f"restore cannot manage it",
                    column=node.col_offset,
                )

    @staticmethod
    def _watermark_functions(module: ModuleContext):
        """Names of counters referenced (via ``global``) by reset_*/
        advance_* functions in this module."""
        resets: set = set()
        advances: set = set()
        for node in module.tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            is_reset = node.name.startswith("reset_")
            is_advance = node.name.startswith("advance_")
            if not (is_reset or is_advance):
                continue
            referenced: set = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Global):
                    referenced.update(sub.names)
            if is_reset:
                resets.update(referenced)
            if is_advance:
                advances.update(referenced)
        return resets, advances
