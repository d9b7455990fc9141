"""A lint rule and the finding it reports.

A *rule* is a class with a stable id, a one-line rationale, optional
scopes, and a :meth:`Rule.check` method that yields findings for one
parsed module.  :data:`simlint.rules.RULES` lists every rule the tool
runs.  Rule ids are grouped by family prefix::

    DET...   determinism (wall clock, RNG, unordered iteration)
    SNAP...  snapshot/checkpoint safety
    TEL...   telemetry zero-cost guards
    PRIV...  cross-module private-member access
    EVT...   event-handler hygiene
    LINT...  the linter's own hygiene (unparsable files, reason-less
             suppressions)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from .context import ModuleContext


@dataclass(frozen=True)
class LintFinding:
    """One source-level defect: a rule id, a message and a location
    (the path as given on the command line, 1-based line, 0-based
    column)."""

    rule: str
    message: str
    file: str
    line: int
    column: int = 0

    def __str__(self) -> str:
        return (
            f"{self.file}:{self.line}:{self.column + 1}: "
            f"{self.rule} {self.message}"
        )


class Rule:
    """Base class for lint rules.

    Class attributes
    ----------------
    id:
        Stable id (``DET001``); never renumbered once shipped.
    description:
        One-line rationale.
    scopes:
        Package directories the rule is confined to; an empty tuple
        applies everywhere.  A module matches when any component of
        its path below the ``repro`` package
        (:attr:`ModuleContext.package_parts`) equals a scope name, so
        fixture trees opt into scoped rules by directory layout.
    exempt:
        Subpackages of ``repro`` (the first component below it) the
        rule never checks.
    """

    id: str = ""
    description: str = ""
    scopes: Tuple[str, ...] = ()
    exempt: Tuple[str, ...] = ()

    def applies(self, module: ModuleContext) -> bool:
        parts = module.package_parts
        if parts[0] in self.exempt:
            return False
        return not self.scopes or any(part in self.scopes for part in parts)

    def check(self, module: ModuleContext) -> Iterator[LintFinding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleContext,
        line: int,
        message: str,
        column: int = 0,
    ) -> LintFinding:
        return LintFinding(self.id, message, module.path, line, column)
