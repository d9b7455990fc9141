"""The simulation-correctness linter (tools/simlint).

Fixture-driven rule tests (one positive + one negative module per rule
family under ``tests/lint_fixtures/``), rule scopes, suppression
semantics, the command's exit status, and the self-check that the
shipped source lints clean.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
sys.path.insert(0, str(REPO / "tools"))

from simlint import RULES, LintReport, lint_source, run_lint  # noqa: E402
from simlint.engine import BARE_NOQA_RULE, SYNTAX_RULE  # noqa: E402


def lint_fixture(relpath: str) -> LintReport:
    return run_lint([str(FIXTURES / relpath)])


def rules_found(report: LintReport) -> set:
    return {f.rule for f in report.findings}


# ----------------------------------------------------------------------
# Rule families: each bad fixture trips its family, each ok stays clean
# ----------------------------------------------------------------------


class TestRuleFamilies:
    @pytest.mark.parametrize(
        "fixture, rule",
        [
            ("determinism/sim/bad_wall_clock.py", "DET001"),
            ("determinism/bad_global_rng.py", "DET002"),
            ("determinism/sim/bad_set_iteration.py", "DET003"),
            ("snapshot/flowsim/bad_unpicklable.py", "SNAP001"),
            ("snapshot/bad_counter.py", "SNAP002"),
            ("telemetry/bad_unguarded.py", "TEL001"),
            ("private/bad_private.py", "PRIV001"),
            ("private/bad_private.py", "PRIV002"),
            ("handlers/sim/bad_mutation.py", "EVT001"),
        ],
    )
    def test_bad_fixture_detected(self, fixture, rule):
        report = lint_fixture(fixture)
        assert rule in rules_found(report), report.summary_text()

    @pytest.mark.parametrize(
        "fixture",
        [
            "determinism/sim/ok_kernel_clock.py",
            "determinism/ok_seeded_rng.py",
            "determinism/sim/ok_sorted_iteration.py",
            "snapshot/flowsim/ok_getstate.py",
            "snapshot/ok_counter.py",
            "telemetry/ok_guarded.py",
            "private/ok_public.py",
            "handlers/sim/ok_input_event.py",
        ],
    )
    def test_ok_fixture_clean(self, fixture):
        report = lint_fixture(fixture)
        assert report.ok, report.summary_text()

    def test_bad_wall_clock_counts(self):
        # Both the time.time() and datetime.now() reads are located.
        report = lint_fixture("determinism/sim/bad_wall_clock.py")
        assert len(report.by_rule("DET001")) == 2

    def test_bad_set_iteration_flags_all_three_shapes(self):
        # Annotated parameter, self attribute, and set literal.
        report = lint_fixture("determinism/sim/bad_set_iteration.py")
        assert len(report.by_rule("DET003")) == 3

    def test_scoped_rule_ignores_out_of_scope_module(self):
        # The same wall-clock source outside a sim scope is not DET001's
        # business (host-side tooling may read the clock).
        source = (FIXTURES / "determinism/sim/bad_wall_clock.py").read_text()
        report = LintReport()
        lint_source("tools/whatever.py", source, RULES, report)
        assert not report.by_rule("DET001")


# ----------------------------------------------------------------------
# Scopes are read below the repro package, never above it
# ----------------------------------------------------------------------


class TestScopes:
    def test_checkout_under_a_scope_named_directory_is_out_of_scope(
        self, tmp_path
    ):
        # A checkout under .../sim/ must not put telemetry code in DET001's
        # sim scope; only the components below repro/ decide.
        target = tmp_path / "sim" / "repro" / "telemetry" / "trace.py"
        target.parent.mkdir(parents=True)
        shutil.copy(REPO / "src" / "repro" / "telemetry" / "trace.py", target)
        report = run_lint([str(target)])
        assert report.ok, report.summary_text()

    def test_scoped_module_below_repro_is_in_scope(self, tmp_path):
        target = tmp_path / "repro" / "sim" / "bad_wall_clock.py"
        target.parent.mkdir(parents=True)
        shutil.copy(FIXTURES / "determinism/sim/bad_wall_clock.py", target)
        report = run_lint([str(target)])
        assert len(report.by_rule("DET001")) == 2

    def test_telemetry_package_is_exempt_from_tel001(self):
        source = (FIXTURES / "telemetry/bad_unguarded.py").read_text()
        report = LintReport()
        lint_source("src/repro/telemetry/bus.py", source, RULES, report)
        assert not report.by_rule("TEL001")


# ----------------------------------------------------------------------
# The RULES tuple
# ----------------------------------------------------------------------


class TestRegistry:
    def test_all_five_families_registered(self):
        families = {rule.id.rstrip("0123456789") for rule in RULES}
        assert {"DET", "SNAP", "TEL", "PRIV", "EVT"} <= families

    def test_rule_ids_are_stable_format(self):
        ids = [rule.id for rule in RULES]
        assert len(set(ids)) == len(ids)
        for rule in RULES:
            assert re.fullmatch(r"[A-Z]+[0-9]{3}", rule.id), rule.id
            assert rule.description


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

SUPPRESSED_SRC = """\
import time

def stamp(event):
    event.time = time.time()  # repro: noqa[DET001] - test fixture
"""

BARE_SUPPRESSION_SRC = """\
import time

def stamp(event):
    event.time = time.time()  # repro: noqa[DET001]
"""

WILDCARD_SRC = """\
import time

def stamp(event):
    event.time = time.time()  # repro: noqa[*] - fixture silences all
"""

WRONG_RULE_SRC = """\
import time

def stamp(event):
    event.time = time.time()  # repro: noqa[TEL001] - wrong rule id
"""


class TestSuppressions:
    def run(self, source: str) -> LintReport:
        report = LintReport()
        lint_source("pkg/sim/mod.py", source, RULES, report)
        return report

    def test_noqa_with_reason_suppresses(self):
        report = self.run(SUPPRESSED_SRC)
        assert report.ok
        assert report.suppressed == 1

    def test_reasonless_noqa_suppresses_but_reports_lint002(self):
        report = self.run(BARE_SUPPRESSION_SRC)
        assert rules_found(report) == {BARE_NOQA_RULE}
        assert report.suppressed == 1

    def test_wildcard_covers_any_rule(self):
        report = self.run(WILDCARD_SRC)
        assert report.ok

    def test_wrong_rule_id_does_not_suppress(self):
        report = self.run(WRONG_RULE_SRC)
        assert "DET001" in rules_found(report)

    def test_syntax_error_is_lint001(self):
        report = LintReport()
        lint_source("pkg/mod.py", "def broken(:\n", RULES, report)
        assert rules_found(report) == {SYNTAX_RULE}


# ----------------------------------------------------------------------
# The command: paths in, exit 1 on any finding
# ----------------------------------------------------------------------


def run_python(*argv: str):
    # src is on the path too, so an import of repro would succeed and show.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "tools"), str(REPO / "src")])
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        cwd=str(REPO),
        env=env,
    )


class TestCli:
    def test_findings_exit_nonzero(self):
        proc = run_python(
            "-m",
            "simlint",
            str(FIXTURES / "determinism" / "sim" / "bad_wall_clock.py"),
        )
        assert proc.returncode == 1
        assert "DET001" in proc.stdout

    def test_clean_source_exits_zero(self):
        proc = run_python("-m", "simlint", "src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_missing_path_fails_with_message(self):
        proc = run_python("-m", "simlint", "src/no_such_package")
        assert proc.returncode not in (0, 1)
        assert "no such file or directory: src/no_such_package" in proc.stderr

    def test_imports_no_repro_module(self):
        proc = run_python(
            "-c",
            "import sys; from simlint.__main__ import main; "
            "main(['src/repro']); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))",
        )
        assert proc.stdout.splitlines()[-1] == "[]", proc.stdout + proc.stderr


# ----------------------------------------------------------------------
# Self-check: the shipped source lints clean
# ----------------------------------------------------------------------


class TestSelfCheck:
    def test_src_is_clean(self):
        report = run_lint([str(REPO / "src" / "repro")])
        assert report.ok, report.summary_text()
        assert report.files_checked > 100

    def test_every_suppression_in_src_carries_a_reason(self):
        # LINT002 would fire otherwise, but assert directly for clarity.
        report = run_lint([str(REPO / "src" / "repro")])
        assert not report.by_rule(BARE_NOQA_RULE)
