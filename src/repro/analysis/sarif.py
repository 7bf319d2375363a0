"""SARIF 2.1.0 output for the RPR linter (GitHub code-scanning format).

One static schema subset, kept deliberately small: a single ``run`` with
the full rule catalogue in ``tool.driver.rules`` and one ``result`` per
finding, carrying a stable ``partialFingerprints`` entry so code
scanning keeps a finding's identity across line shifts.

Fingerprints are deliberately *line-independent*: ``sha1(rule_id |
normalized-path | message | occurrence-index)``, where the occurrence
index disambiguates identical messages in one file. Inserting unrelated
lines above a finding does not change its fingerprint; changing the code
that produces the finding does.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence

from .rules import ALL_RULES, Finding

__all__ = ["SARIF_SCHEMA", "SARIF_VERSION", "fingerprints", "to_sarif", "render_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

TOOL_NAME = "repro-lint"
TOOL_URI = "https://github.com/kubeshare-repro"


def _norm(path: str) -> str:
    return path.replace("\\", "/").lstrip("./")


def fingerprints(findings: Sequence[Finding]) -> List[str]:
    """Stable fingerprint per finding (order-aligned with the input)."""
    counts: Dict[str, int] = {}
    out: List[str] = []
    for f in findings:
        base = f"{f.rule_id}|{_norm(f.path)}|{f.message}"
        n = counts.get(base, 0)
        counts[base] = n + 1
        out.append(hashlib.sha1(f"{base}|{n}".encode("utf-8")).hexdigest()[:20])
    return out


def _rule_descriptor(rule) -> Dict[str, Any]:
    return {
        "id": rule.id,
        "name": rule.title.title().replace(" ", "").replace("-", "")[:64] or rule.id,
        "shortDescription": {"text": rule.title},
        "fullDescription": {"text": rule.rationale},
        "help": {"text": f"Fix: {rule.fixit}"},
        "defaultConfiguration": {"level": "error"},
    }


def to_sarif(findings: Sequence[Finding]) -> Dict[str, Any]:
    """Build the SARIF log object for *findings*."""
    rule_index = {rule.id: i for i, rule in enumerate(ALL_RULES)}
    results: List[Dict[str, Any]] = []
    for finding, fp in zip(findings, fingerprints(findings)):
        results.append(
            {
                "ruleId": finding.rule_id,
                "ruleIndex": rule_index.get(finding.rule_id, -1),
                "level": "error",
                "message": {"text": f"{finding.message} (fix: {finding.fixit})"},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.path.replace("\\", "/"),
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {
                                "startLine": finding.line,
                                "startColumn": finding.col,
                            },
                        }
                    }
                ],
                "partialFingerprints": {"reproLintFingerprint/v1": fp},
            }
        )
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": TOOL_URI,
                        "version": "1.0.0",
                        "rules": [_rule_descriptor(r) for r in ALL_RULES],
                    }
                },
                "columnKind": "unicodeCodePoints",
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }


def render_sarif(findings: Sequence[Finding]) -> str:
    return json.dumps(to_sarif(findings), indent=2, sort_keys=True) + "\n"
