"""Typed findings produced by the data-plane static analyzer.

A :class:`Finding` is one verified defect (or observation) about the
installed forwarding state: a loop, a blackhole, a shadowed rule, a
same-priority conflict, or a policy intent the rules fail to realize.
:class:`AnalysisReport` aggregates findings with severity accounting and
renders the human/JSON reports the ``repro analyze`` subcommand prints.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Severity levels, most severe first.
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"

_SEVERITY_ORDER = {SEVERITY_ERROR: 0, SEVERITY_WARNING: 1, SEVERITY_INFO: 2}

#: SARIF 2.1.0 result levels for each severity.
SEVERITY_TO_SARIF = {
    SEVERITY_ERROR: "error",
    SEVERITY_WARNING: "warning",
    SEVERITY_INFO: "note",
}

#: SARIF version pinned by the SARIF reporter.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def severity_rank(severity: str) -> int:
    """Sort key: 0 = error, 1 = warning, 2 = info, 3 = unknown."""
    return _SEVERITY_ORDER.get(severity, 3)


def fingerprint_of(rule: str, location: Dict[str, object], message: str) -> str:
    """Stable 16-hex-digit identity of one finding.

    The fingerprint lets two reports be compared finding by finding: it
    is a pure function of the rule id, the location envelope (file/line or
    switch/table), and the message — independent of discovery order.
    """
    parts = [rule, message]
    for key in sorted(location):
        parts.append(f"{key}={location[key]}")
    digest = hashlib.sha256("\x1f".join(parts).encode()).hexdigest()
    return digest[:16]


def envelope(
    rule: str,
    severity: str,
    message: str,
    location: Dict[str, object],
) -> Dict[str, object]:
    """The JSON envelope of one ``repro analyze`` finding.

    Every finding renders to this shape, so a report's findings can be
    compared across runs by fingerprint.
    """
    return {
        "rule": rule,
        "severity": severity,
        "message": message,
        "location": dict(location),
        "fingerprint": fingerprint_of(rule, location, message),
    }


def sarif_document(
    envelopes: List[Dict[str, object]],
    rules: List[Dict[str, str]],
) -> Dict[str, object]:
    """Render finding envelopes as a single-run SARIF 2.1.0 document.

    ``rules`` lists the rule metadata to embed in the tool driver:
    dicts with ``id``, ``name``, and ``description`` keys.  Only rules
    given there are embedded; results may reference others.
    """
    results = []
    for record in envelopes:
        location = record.get("location") or {}
        # Data-plane findings locate in the network, not a file: the
        # artifact is the switch (or the network as a whole).
        physical = {
            "artifactLocation": {"uri": str(location.get("switch", "network"))},
        }
        results.append(
            {
                "ruleId": record["rule"],
                "level": SEVERITY_TO_SARIF.get(
                    str(record["severity"]), "warning"
                ),
                "message": {"text": record["message"]},
                "locations": [{"physicalLocation": physical}],
                "partialFingerprints": {
                    "reproFingerprint/v1": record["fingerprint"],
                },
            }
        )
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analyze",
                        "informationUri": (
                            "https://github.com/repro/horse"
                        ),
                        "rules": [
                            {
                                "id": rule["id"],
                                "name": rule.get("name", rule["id"]),
                                "shortDescription": {
                                    "text": rule.get("description", "")
                                },
                            }
                            for rule in rules
                        ],
                    }
                },
                "results": results,
            }
        ],
    }

#: Finding kinds emitted by the analyzer.
KIND_LOOP = "loop"
KIND_BLACKHOLE = "blackhole"
KIND_SHADOWED_RULE = "shadowed_rule"
KIND_REDUNDANT_RULE = "redundant_rule"
KIND_RULE_CONFLICT = "rule_conflict"
KIND_REACHABILITY = "reachability"
KIND_PATH_DEVIATION = "path_deviation"
KIND_COMPOSITION = "composition"


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding.

    Attributes
    ----------
    kind:
        One of the ``KIND_*`` constants (loop, blackhole, ...).
    severity:
        ``error`` (forwarding is broken), ``warning`` (suspicious or
        dead state), or ``info`` (benign observation).
    message:
        Human-readable one-line description.
    switch:
        Switch where the defect manifests (when localizable).
    table_id:
        Flow table involved (rule-level findings).
    path:
        Switch-name walk relevant to the finding (loops, blackholes,
        intent checks).
    traffic_class:
        ``describe()`` rendering of the witness header tuple that
        exhibits the behavior (graph-level findings).
    """

    kind: str
    severity: str
    message: str
    switch: Optional[str] = None
    table_id: Optional[int] = None
    path: Tuple[str, ...] = ()
    traffic_class: Optional[str] = None

    @property
    def rule(self) -> str:
        """Stable rule id: data-plane findings are ``DP-<KIND>``."""
        return "DP-" + self.kind.upper().replace("_", "-")

    def location(self) -> Dict[str, object]:
        """Location part of the shared finding envelope."""
        loc: Dict[str, object] = {}
        if self.switch is not None:
            loc["switch"] = self.switch
        if self.table_id is not None:
            loc["table_id"] = self.table_id
        if self.path:
            loc["path"] = " -> ".join(self.path)
        return loc

    @property
    def fingerprint(self) -> str:
        return fingerprint_of(self.rule, self.location(), self.message)

    def to_envelope(self) -> Dict[str, object]:
        """Render to the JSON finding envelope (:func:`envelope`)."""
        return envelope(self.rule, self.severity, self.message, self.location())

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable rendering."""
        record: Dict[str, object] = {
            "kind": self.kind,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }
        if self.switch is not None:
            record["switch"] = self.switch
        if self.table_id is not None:
            record["table_id"] = self.table_id
        if self.path:
            record["path"] = list(self.path)
        if self.traffic_class is not None:
            record["traffic_class"] = self.traffic_class
        return record

    def __str__(self) -> str:
        location = f" [{self.switch}]" if self.switch else ""
        return f"{self.severity.upper()} {self.kind}{location}: {self.message}"


@dataclass
class AnalysisReport:
    """The full result of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)
    classes_analyzed: int = 0
    switches_analyzed: int = 0
    injections: int = 0

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_WARNING]

    @property
    def infos(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_INFO]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was produced."""
        return not self.errors

    def by_kind(self, kind: str) -> List[Finding]:
        return [f for f in self.findings if f.kind == kind]

    def sorted_findings(self) -> List[Finding]:
        """Findings ordered by severity, then kind, then location."""
        return sorted(
            self.findings,
            key=lambda f: (
                _SEVERITY_ORDER.get(f.severity, 3),
                f.kind,
                f.switch or "",
                f.message,
            ),
        )

    def extend(self, findings: List[Finding]) -> None:
        self.findings.extend(findings)

    def exit_code(self, strict: bool = False) -> int:
        """Process exit code: 1 on errors (or warnings when strict)."""
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "classes_analyzed": self.classes_analyzed,
            "switches_analyzed": self.switches_analyzed,
            "injections": self.injections,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
            "findings": [f.to_dict() for f in self.sorted_findings()],
        }

    def to_sarif(self) -> Dict[str, object]:
        """SARIF 2.1.0 rendering: one run of the ``repro-analyze`` tool."""
        findings = self.sorted_findings()
        seen: Dict[str, Dict[str, str]] = {}
        for finding in findings:
            seen.setdefault(
                finding.rule,
                {
                    "id": finding.rule,
                    "name": finding.kind,
                    "description": (
                        f"data-plane {finding.kind.replace('_', ' ')} finding"
                    ),
                },
            )
        return sarif_document(
            [f.to_envelope() for f in findings],
            [seen[key] for key in sorted(seen)],
        )

    def summary_text(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"analyzed {self.classes_analyzed} traffic classes over "
            f"{self.switches_analyzed} switches "
            f"({self.injections} ingress injections)"
        ]
        if not self.findings:
            lines.append("no findings: forwarding state verified clean")
            return "\n".join(lines)
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info"
        )
        for finding in self.sorted_findings():
            lines.append(f"  {finding}")
            if finding.path:
                lines.append(f"      path: {' -> '.join(finding.path)}")
        return "\n".join(lines)
