"""Event-handler hygiene rules (EVT...).

Kernel callbacks run in the middle of the event loop: mutating topology
there directly (``topology.fail_link(...)`` from a ``fire`` method or a
periodic tick) bypasses the engine's documented mutation points — the
engine never invalidates its route cache, never marks solver links
dirty, and never raises port-status to the controller, so the
simulation silently diverges from the rule tables.  Link churn must be
scheduled through the engine's input events (``fail_link_at`` /
``restore_link_at``), whose handlers (``on_link_state``) own the
bookkeeping.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..context import ModuleContext
from ..rule import LintFinding, Rule

#: Topology-mutating methods.
MUTATORS = {
    "fail_link",
    "restore_link",
    "add_link",
    "add_switch",
    "add_host",
}

#: Receiver names that look like a topology reference.
TOPOLOGY_NAMES = {"topology", "topo", "_topology"}

#: Handler names that ARE the documented mutation points: the engine
#: methods the one LinkStateChange input event dispatches to.
DOCUMENTED_MUTATION_POINTS = {"on_link_state"}


def _mentions_topology(node: ast.expr) -> bool:
    """True when the call receiver chain passes through a topology ref."""
    current = node
    while isinstance(current, ast.Attribute):
        if current.attr in TOPOLOGY_NAMES:
            return True
        current = current.value
    return isinstance(current, ast.Name) and current.id in TOPOLOGY_NAMES


def _is_kernel_callback(func: ast.FunctionDef) -> bool:
    """Heuristic: does this function run from the event loop?

    Matches ``fire`` methods (Event subclasses), ``on_*`` engine
    handlers, ``*_tick``/``*_callback`` periodic callbacks, and any
    function whose first non-self parameter is named ``sim`` (the
    kernel passes itself to every callback).
    """
    name = func.name
    if name == "fire" or name.lstrip("_").startswith("on_"):
        return True
    if name.endswith(("_tick", "_callback", "_cb")):
        return True
    params = [arg.arg for arg in func.args.args]
    if params and params[0] in ("self", "cls"):
        params = params[1:]
    return bool(params) and params[0] == "sim"


class TopologyMutationRule(Rule):
    id = "EVT001"
    description = (
        "kernel callback mutates topology directly instead of routing "
        "through the engine's documented mutation points "
        "(fail_link_at/restore_link_at -> on_link_state)"
    )
    scopes = ("sim", "flowsim", "pktsim", "control", "runtime")

    def check(self, module: ModuleContext) -> Iterator[LintFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr in MUTATORS
            ):
                continue
            if not _mentions_topology(func.value):
                continue
            enclosing = self._enclosing_callback(module, node)
            if enclosing is None:
                continue
            if enclosing.name in DOCUMENTED_MUTATION_POINTS:
                continue
            yield self.finding(
                module,
                node.lineno,
                f"kernel callback {enclosing.name}() mutates topology "
                f"via .{func.attr}(); schedule an engine input event "
                f"(fail_link_at / restore_link_at) so on_link_state "
                f"does the bookkeeping",
                column=node.col_offset,
            )

    @staticmethod
    def _enclosing_callback(
        module: ModuleContext, node: ast.AST
    ) -> Optional[ast.FunctionDef]:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.FunctionDef) and _is_kernel_callback(
                ancestor
            ):
                return ancestor
        return None
