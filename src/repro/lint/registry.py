"""The pluggable rule registry.

A *rule* is a class with a stable id, a severity, a one-line
description, and a :meth:`Rule.check` method that yields findings for
one parsed module.  Rules self-register at import time via the
:func:`register` decorator; :func:`all_rules` returns them in id order.
Future PRs extend the linter by dropping a module into
``repro/lint/rules/`` — the framework discovers everything registered
there.

Rule ids are grouped by family prefix::

    DET...   determinism (wall clock, RNG, unordered iteration)
    SNAP...  snapshot/checkpoint safety
    TEL...   telemetry zero-cost guards
    PRIV...  cross-module private-member access
    EVT...   event-handler hygiene
    LINT...  the linter's own hygiene (e.g. reason-less suppressions)
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Tuple, Type

from ..errors import HorseError
from .context import ModuleContext
from .findings import LintFinding

_RULE_ID = re.compile(r"^[A-Z]+[0-9]{3}$")

_REGISTRY: Dict[str, "Rule"] = {}


class LintConfigError(HorseError):
    """Bad linter configuration (unknown rule id, bad baseline...)."""


class Rule:
    """Base class for lint rules.

    Class attributes
    ----------------
    id:
        Stable id (``DET001``); never renumbered once shipped.
    name:
        Short kebab-case slug used in SARIF rule metadata.
    severity:
        Default severity for findings this rule emits.
    description:
        One-line rationale shown by ``repro lint --list-rules``.
    scopes:
        Path components (package directory names) the rule is confined
        to; an empty tuple applies everywhere.  A module matches when
        any of its path components equals a scope name, so fixture
        trees can opt into scoped rules by directory layout.
    """

    id: str = ""
    name: str = ""
    severity: str = "error"
    description: str = ""
    scopes: Tuple[str, ...] = ()

    def applies(self, module: ModuleContext) -> bool:
        if not self.scopes:
            return True
        return any(part in self.scopes for part in module.path_parts)

    def check(self, module: ModuleContext) -> Iterator[LintFinding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleContext,
        line: int,
        message: str,
        column: int = 0,
        severity: str | None = None,
    ) -> LintFinding:
        return LintFinding(
            rule=self.id,
            severity=severity or self.severity,
            message=message,
            file=module.path,
            line=line,
            column=column,
        )


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and add one rule to the registry."""
    rule = cls()
    if not _RULE_ID.match(rule.id or ""):
        raise LintConfigError(
            f"rule id {rule.id!r} does not match FAMILY###"
        )
    if rule.id in _REGISTRY:
        raise LintConfigError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, in id order (imports the built-ins)."""
    from . import rules as _builtin  # noqa: F401 (registration side effect)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def select_rules(
    select: Iterable[str] = (), ignore: Iterable[str] = ()
) -> List[Rule]:
    """Filter the registry by id or id-prefix.

    ``select=('DET',)`` keeps the determinism family;
    ``ignore=('DET003',)`` drops one rule.  Unknown selectors raise, so
    a typo in CI fails loudly instead of silently linting nothing.
    """
    rules = all_rules()
    known = {rule.id for rule in rules}

    def matches(rule_id: str, selector: str) -> bool:
        return rule_id == selector or rule_id.startswith(selector)

    for selector in list(select) + list(ignore):
        if not any(matches(rule_id, selector) for rule_id in known):
            raise LintConfigError(
                f"unknown rule or family: {selector!r} "
                f"(known: {', '.join(sorted(known))})"
            )
    if select:
        rules = [
            r for r in rules if any(matches(r.id, s) for s in select)
        ]
    if ignore:
        rules = [
            r for r in rules if not any(matches(r.id, s) for s in ignore)
        ]
    return rules
