"""Cross-module private-member access rules (PRIV...).

The observation-API redesign promoted every cross-module touch point to
a public name; these rules keep it that way:

* PRIV001 — ``obj._name`` attribute access where ``obj`` is anything
  but the literal ``self`` or ``cls``: the static over-approximation of
  "another module's private member".
* PRIV002 — ``from x import _name``: importing a private name is
  cross-module by definition (relative imports of private *sibling
  modules* inside one package are allowed).

Same-class access through another instance (``other._seq`` in
``__lt__``) is rare and legitimate; mark those lines with
``# repro: noqa[PRIV001] - <why>`` (the legacy ``# private-ok`` marker
is still honored).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import LEGACY_PRIVATE_OK, ModuleContext
from ..findings import LintFinding
from ..registry import Rule, register

#: (receiver name, attribute) pairs that are documented APIs despite the
#: leading underscore — not another *repro* module's private member.
ALLOWED_PAIRS = {("os", "_exit")}


def _is_private(name: str) -> bool:
    return (
        name.startswith("_")
        and name != "_"
        and not (name.startswith("__") and name.endswith("__"))
    )


def _legacy_suppressed(module: ModuleContext, line: int) -> bool:
    return LEGACY_PRIVATE_OK in module.line_text(line)


@register
class PrivateAttributeRule(Rule):
    id = "PRIV001"
    name = "no-private-attribute-access"
    severity = "error"
    description = (
        "cross-module access to a _private attribute; promote the "
        "member to a public name"
    )
    scopes = ()

    def check(self, module: ModuleContext) -> Iterator[LintFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if not _is_private(node.attr):
                continue
            value = node.value
            if isinstance(value, ast.Name) and value.id in ("self", "cls"):
                continue
            if (
                isinstance(value, ast.Name)
                and (value.id, node.attr) in ALLOWED_PAIRS
            ):
                continue
            if _legacy_suppressed(module, node.lineno):
                continue
            receiver = (
                value.id
                if isinstance(value, ast.Name)
                else type(value).__name__.lower()
            )
            yield self.finding(
                module,
                node.lineno,
                f"private attribute access: {receiver}.{node.attr}; "
                f"promote the member to a public name",
                column=node.col_offset,
            )


@register
class PrivateImportRule(Rule):
    id = "PRIV002"
    name = "no-private-imports"
    severity = "error"
    description = (
        "`from x import _name` imports a private member across modules"
    )
    scopes = ()

    def check(self, module: ModuleContext) -> Iterator[LintFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                if not _is_private(alias.name):
                    continue
                if _legacy_suppressed(module, node.lineno):
                    continue
                origin = node.module or "." * node.level
                yield self.finding(
                    module,
                    node.lineno,
                    f"private import: from {origin} import {alias.name}",
                    column=node.col_offset,
                )
