"""Telemetry zero-cost-guard rule (TEL...).

The observation API's contract is that disabled telemetry costs one
attribute read per site: every ``trace_bus.emit(...)`` /
``trace_bus.span(...)`` call must be dominated by an ``is not None``
check of the same receiver.  An unguarded emission crashes when
telemetry is off (the slot holds ``None``) or — worse — silently forces
every hot-path event through attribute machinery the <5% overhead gate
exists to forbid.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..context import ModuleContext
from ..rule import LintFinding, Rule

#: Receiver names that hold a maybe-None telemetry sink.
GUARDED_RECEIVERS = {"trace_bus", "_trace_bus"}

#: Emission methods on those receivers.
EMIT_METHODS = {"emit", "span"}


def _receiver_key(node: ast.expr) -> Optional[str]:
    """Canonical text of a guarded receiver expression, or None."""
    if isinstance(node, ast.Name) and node.id in GUARDED_RECEIVERS:
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and node.attr in GUARDED_RECEIVERS
        and isinstance(node.value, ast.Name)
    ):
        return f"{node.value.id}.{node.attr}"
    return None


def _test_guards(test: ast.expr, key: str) -> bool:
    """True when ``test`` establishes that ``key`` is not None."""
    rendered = ast.unparse(test)
    if f"{key} is not None" in rendered:
        return True
    # A bare truthiness check (``if trace_bus:``) also guards.
    if rendered == key:
        return True
    return False


def _test_rejects(test: ast.expr, key: str) -> bool:
    """True when ``test`` is an ``is None`` check of ``key``."""
    return f"{key} is None" in ast.unparse(test)


def _ends_control_flow(body) -> bool:
    if not body:
        return False
    tail = body[-1]
    return isinstance(tail, (ast.Return, ast.Raise, ast.Continue, ast.Break))


class UnguardedEmissionRule(Rule):
    id = "TEL001"
    description = (
        "telemetry emission (trace_bus) not wrapped in the "
        "zero-cost `is not None` guard; crashes when telemetry is "
        "disabled and defeats the <5% overhead gate"
    )
    # The telemetry package itself implements the sinks: the bus
    # emitting on itself is the one legitimate unguarded caller.
    exempt = ("telemetry",)

    def check(self, module: ModuleContext) -> Iterator[LintFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr in EMIT_METHODS
            ):
                continue
            key = _receiver_key(func.value)
            if key is None:
                continue
            if self._guarded(module, node, key):
                continue
            yield self.finding(
                module,
                node.lineno,
                f"{key}.{func.attr}(...) is not guarded by "
                f"`{key} is not None`; telemetry slots hold None when "
                f"disabled",
                column=node.col_offset,
            )

    def _guarded(
        self, module: ModuleContext, node: ast.Call, key: str
    ) -> bool:
        # (a) an enclosing if/while/ternary establishes `key is not None`.
        child: ast.AST = node
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.If, ast.While)):
                in_else = (
                    hasattr(ancestor, "orelse") and child in ancestor.orelse
                )
                if not in_else and _test_guards(ancestor.test, key):
                    return True
                if in_else and _test_rejects(ancestor.test, key):
                    return True
            elif isinstance(ancestor, ast.IfExp):
                if child is ancestor.body and _test_guards(ancestor.test, key):
                    return True
                if child is ancestor.orelse and _test_rejects(
                    ancestor.test, key
                ):
                    return True
            elif isinstance(ancestor, ast.Assert):
                if _test_guards(ancestor.test, key):
                    return True
            # (b) an earlier sibling `if key is None: return/raise/...`
            # dominates everything after it in the same block.
            for block in ("body", "orelse", "finalbody"):
                statements = getattr(ancestor, block, None)
                if not statements or child not in statements:
                    continue
                position = statements.index(child)
                for before in statements[:position]:
                    if (
                        isinstance(before, ast.If)
                        and _test_rejects(before.test, key)
                        and _ends_control_flow(before.body)
                    ):
                        return True
                    if isinstance(before, ast.Assert) and _test_guards(
                        before.test, key
                    ):
                        return True
            child = ancestor
        return False
