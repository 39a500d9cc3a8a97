"""Emitters for lint reports: plain text, JSON and markdown.

The JSON form is the machine interface (consumed by the dashboard's lint
section and by the baseline workflow) and round-trips losslessly through
:func:`from_json`.  The markdown form is for humans and CI summaries; any
hostile characters in file or rule names (pipes, backticks, newlines,
angle brackets) are escaped so a crafted netlist name cannot break the
table or inject markup.
"""

from __future__ import annotations

import json

from ..sweep.results import markdown_table
from .diagnostics import SEVERITIES, Diagnostic, LintReport

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


def to_markdown(report: LintReport, title: str = "Lint report") -> str:
    """Render a human-readable markdown summary with escaped names."""
    lines = [f"# {title}", ""]
    counts = report.counts()
    lines.append(
        "**"
        + " · ".join(f"{counts[severity]} {severity}" for severity in SEVERITIES)
        + "**"
    )
    lines.append("")
    if not report:
        lines.append("No findings.")
        return "\n".join(lines) + "\n"
    lines.append(
        markdown_table(
            ["Location", "Severity", "Rule", "Message", "Hint"],
            [
                [
                    diagnostic.location(),
                    diagnostic.severity,
                    diagnostic.rule,
                    diagnostic.message,
                    diagnostic.hint or "—",
                ]
                for diagnostic in report
            ],
        )
    )
    return "\n".join(lines) + "\n"
