"""simlint: the simulation-correctness linter of the Horse simulator.

An AST-based static analyzer for the simulator's own source, the
source-level sibling of ``repro analyze`` (which verifies installed
forwarding state).  Five rule families enforce the invariants the
runtime differential suites otherwise discover hours late: determinism
(DET...), snapshot safety (SNAP...), telemetry zero-cost guards
(TEL...), cross-module private access (PRIV...) and event-handler
hygiene (EVT...).  It imports nothing from ``repro``.

From the repository root::

    PYTHONPATH=tools python -m simlint src/repro

exits 1 on any finding and 0 when clean.  From Python::

    from simlint import run_lint
    report = run_lint(["src/repro"])
    assert report.ok, report.summary_text()
"""

from .engine import LintReport, lint_source, run_lint
from .rules import RULES

__all__ = ["LintReport", "RULES", "lint_source", "run_lint"]
