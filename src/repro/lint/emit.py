"""Emitters for lint reports: plain text and JSON.

The JSON form is the machine interface (consumed by the dashboard's lint
section) and round-trips losslessly through :func:`from_json`.
"""

from __future__ import annotations

import json

from .diagnostics import Diagnostic, LintReport

#: Schema version stamped into the JSON payload.
JSON_VERSION = 1


def to_text(report: LintReport) -> str:
    """Render one ``file:line:column: severity[rule] message`` line per finding."""
    lines = []
    for diagnostic in report:
        line = (
            f"{diagnostic.location()}: {diagnostic.severity}"
            f"[{diagnostic.rule}] {diagnostic.message}"
        )
        if diagnostic.hint:
            line += f" (hint: {diagnostic.hint})"
        lines.append(line)
    return "\n".join(lines)


def to_json(report: LintReport, indent: "int | None" = 2) -> str:
    """Serialise the report deterministically (sorted keys, sorted findings)."""
    payload = {
        "version": JSON_VERSION,
        "summary": report.counts(),
        "diagnostics": [
            {
                "rule": diagnostic.rule,
                "severity": diagnostic.severity,
                "message": diagnostic.message,
                "file": diagnostic.file,
                "line": diagnostic.line,
                "column": diagnostic.column,
                "hint": diagnostic.hint,
            }
            for diagnostic in report
        ],
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


def from_json(text: str) -> LintReport:
    """Parse a payload produced by :func:`to_json` back into a report."""
    payload = json.loads(text)
    version = payload.get("version")
    if version != JSON_VERSION:
        raise ValueError(f"unsupported lint report version {version!r}")
    report = LintReport()
    for entry in payload.get("diagnostics", []):
        report.diagnostics.append(
            Diagnostic(
                rule=entry["rule"],
                severity=entry["severity"],
                message=entry["message"],
                file=entry.get("file", "<memory>"),
                line=int(entry.get("line", 0)),
                column=int(entry.get("column", 0)),
                hint=entry.get("hint", ""),
            )
        )
    return report
