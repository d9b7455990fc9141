"""The lint driver: walk files, run every rule, apply suppressions.

:func:`run_lint` is the programmatic entry point behind
``python -m simlint``:

>>> from simlint import run_lint
>>> report = run_lint(["src/repro"])          # doctest: +SKIP
>>> report.ok                                  # doctest: +SKIP
True

Suppression semantics
---------------------
A finding is dropped when its line carries ``# repro: noqa[RULE]`` (or
``noqa[*]``) naming its rule id.  The comment should carry a reason
(``# repro: noqa[DET001] - trace_bus wall clock, never feeds sim state``);
a reason-less suppression is itself reported as LINT002 so intentional
exceptions stay documented.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import List, Sequence

from .context import ModuleContext
from .rule import LintFinding, Rule
from .rules import RULES

#: Rule id reserved for unparsable files.
SYNTAX_RULE = "LINT001"
#: Rule id reserved for reason-less suppressions.
BARE_NOQA_RULE = "LINT002"


@dataclass
class LintReport:
    """The full result of one lint run."""

    findings: List[LintFinding] = field(default_factory=list)
    files_checked: int = 0
    #: Findings suppressed by ``# repro: noqa[...]`` comments.
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_rule(self, rule: str) -> List[LintFinding]:
        return [f for f in self.findings if f.rule == rule]

    def summary_text(self) -> str:
        lines = [
            f"checked {self.files_checked} file(s) against {len(RULES)} "
            f"rule(s) ({self.suppressed} suppressed)"
        ]
        lines.extend(
            str(finding)
            for finding in sorted(
                self.findings,
                key=lambda f: (f.file, f.line, f.column, f.rule, f.message),
            )
        )
        lines.append(
            f"{len(self.findings)} finding(s)"
            if self.findings
            else "no findings: simulation-correctness lint clean"
        )
        return "\n".join(lines)


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` paths."""
    found: List[str] = []
    for root in paths:
        if os.path.isfile(root):
            found.append(root)
            continue
        if not os.path.isdir(root):
            raise FileNotFoundError(f"no such file or directory: {root}")
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(
                d for d in dirnames if d != "__pycache__"
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    found.append(os.path.join(dirpath, filename))
    return found


def lint_source(
    path: str,
    source: str,
    rules: Sequence[Rule],
    report: LintReport,
) -> None:
    """Lint one in-memory module into ``report`` (testing seam)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.findings.append(
            LintFinding(
                rule=SYNTAX_RULE,
                message=f"file does not parse: {exc.msg}",
                file=path,
                line=exc.lineno or 1,
                column=(exc.offset or 1) - 1,
            )
        )
        return
    module = ModuleContext(path, source, tree)
    used_suppressions: set = set()
    for rule in rules:
        if not rule.applies(module):
            continue
        for finding in rule.check(module):
            suppression = module.suppression_at(finding.line)
            if suppression is not None and suppression.covers(finding.rule):
                report.suppressed += 1
                used_suppressions.add(suppression.line)
                continue
            report.findings.append(finding)
    # A suppression that fires without a reason string is itself a
    # finding: intentional exceptions must say why they are exceptions.
    for line, suppression in module.suppressions.items():
        if line in used_suppressions and not suppression.reason:
            report.findings.append(
                LintFinding(
                    rule=BARE_NOQA_RULE,
                    message=(
                        "suppression without a reason: append "
                        "'- <why this is an intentional exception>'"
                    ),
                    file=path,
                    line=line,
                )
            )


def run_lint(paths: Sequence[str]) -> LintReport:
    """Lint ``paths`` with every rule and return the aggregated report."""
    report = LintReport()
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        lint_source(path, source, RULES, report)
        report.files_checked += 1
    return report
