"""Finding emitters behind ``python -m repro.lint --format``:

* ``text`` — one ``path:line:col: RULE message`` line per finding
  (the historical default, unchanged);
* ``json`` — a single object ``{"findings": [...], "count": N}`` for
  editor integrations and scripted triage;
* ``github`` — ``::error`` workflow commands, which GitHub Actions
  renders as inline PR annotations;
* ``sarif`` — a SARIF 2.1.0 log, the interchange format GitHub code
  scanning ingests via ``github/codeql-action/upload-sarif``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.lint.rules import Finding

#: The accepted ``--format`` values, in help-text order.
FORMATS: Sequence[str] = ("text", "json", "github", "sarif")

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_JsonFinding = Dict[str, Union[str, int]]


def finding_to_dict(finding: Finding) -> _JsonFinding:
    """The JSON object for one finding."""
    return {
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "rule": finding.rule_id,
        "message": finding.message,
    }


def render_text(findings: Sequence[Finding]) -> List[str]:
    """``text`` format: one rendered line per finding."""
    return [finding.render() for finding in findings]


def render_json(findings: Sequence[Finding]) -> List[str]:
    """``json`` format: a single pretty-printed object."""
    payload = {
        "findings": [finding_to_dict(f) for f in findings],
        "count": len(findings),
    }
    return [json.dumps(payload, indent=2, sort_keys=False)]


def _escape_property(value: str) -> str:
    """Escape a workflow-command property value (GitHub's own rules)."""
    return (
        value.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
        .replace(":", "%3A")
        .replace(",", "%2C")
    )


def _escape_data(value: str) -> str:
    """Escape workflow-command message data."""
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def render_github(findings: Sequence[Finding]) -> List[str]:
    """``github`` format: one ``::error`` workflow command per finding."""
    lines: List[str] = []
    for finding in findings:
        properties = (
            f"file={_escape_property(finding.path)}"
            f",line={finding.line}"
            f",col={finding.col}"
            f",title={_escape_property(finding.rule_id)}"
        )
        lines.append(f"::error {properties}::{_escape_data(finding.message)}")
    return lines


def render_sarif(
    findings: Sequence[Finding],
    rule_titles: Optional[Mapping[str, str]] = None,
) -> List[str]:
    """``sarif`` format: one SARIF 2.1.0 log object.

    ``rule_titles`` (id -> short description) populates the driver's
    rule metadata; ids seen only in findings still get a bare entry so
    the log validates against the schema either way.
    """
    titles = dict(rule_titles or {})
    seen_ids = sorted({f.rule_id for f in findings} | set(titles))
    rules = []
    for rule_id in seen_ids:
        entry: Dict[str, object] = {"id": rule_id}
        title = titles.get(rule_id)
        if title:
            entry["shortDescription"] = {"text": title}
        rules.append(entry)
    results = [
        {
            "ruleId": f.rule_id,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path.replace("\\", "/"),
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col,
                        },
                    }
                }
            ],
        }
        for f in findings
    ]
    log = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {"driver": {"name": "repro.lint", "rules": rules}},
                "results": results,
            }
        ],
    }
    return [json.dumps(log, indent=2, sort_keys=False)]


def render(
    findings: Sequence[Finding],
    output_format: str,
    rule_titles: Optional[Mapping[str, str]] = None,
) -> List[str]:
    """Dispatch on ``output_format`` (one of :data:`FORMATS`)."""
    if output_format == "text":
        return render_text(findings)
    if output_format == "json":
        return render_json(findings)
    if output_format == "github":
        return render_github(findings)
    if output_format == "sarif":
        return render_sarif(findings, rule_titles)
    raise ValueError(f"unknown output format: {output_format!r}")


def emit(
    findings: Sequence[Finding],
    output_format: str,
    rule_titles: Optional[Mapping[str, str]] = None,
) -> None:
    """Print the findings in ``output_format`` to stdout."""
    for line in render(findings, output_format, rule_titles):
        print(line)
