"""The diagnostic model shared by every lint layer.

A :class:`Diagnostic` is one finding: a stable rule identifier, a severity,
a source position (1-based line/column; 0 when the object being linted has
no source text, e.g. a programmatically built circuit) and a human-oriented
message plus an optional fix hint.  A :class:`LintReport` is an ordered
collection of diagnostics with the aggregation queries the CLI, the fuzz
oracle and the dashboard need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: Severities, most severe first.
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"
SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING, SEVERITY_INFO)

_SEVERITY_RANK = {severity: rank for rank, severity in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding."""

    rule: str
    severity: str
    message: str
    file: str = "<memory>"
    line: int = 0
    column: int = 0
    hint: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def location(self) -> str:
        """Render ``file:line:column`` (omitting a missing position)."""
        if self.line:
            return f"{self.file}:{self.line}:{self.column}"
        return self.file

    def sort_key(self) -> tuple:
        return (
            self.file,
            self.line,
            self.column,
            _SEVERITY_RANK.get(self.severity, len(SEVERITIES)),
            self.rule,
            self.message,
        )


@dataclass
class LintReport:
    """An ordered collection of diagnostics with aggregation helpers."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(
        self,
        rule: str,
        severity: str,
        message: str,
        *,
        file: str = "<memory>",
        line: int = 0,
        column: int = 0,
        hint: str = "",
    ) -> Diagnostic:
        diagnostic = Diagnostic(rule, severity, message, file, line, column, hint)
        self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, other: "LintReport | Iterable[Diagnostic]") -> None:
        if isinstance(other, LintReport):
            self.diagnostics.extend(other.diagnostics)
        else:
            self.diagnostics.extend(other)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(sorted(self.diagnostics, key=Diagnostic.sort_key))

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    # -- aggregation -----------------------------------------------------------
    def errors(self) -> list[Diagnostic]:
        return [d for d in self if d.severity == SEVERITY_ERROR]

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic is present."""
        return not self.errors()

    def counts(self) -> dict[str, int]:
        """Diagnostic counts keyed by severity (every severity present)."""
        counts = {severity: 0 for severity in SEVERITIES}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity] += 1
        return counts

    def rules(self) -> list[str]:
        """The distinct rule ids present, sorted."""
        return sorted({diagnostic.rule for diagnostic in self.diagnostics})

    def files(self) -> list[str]:
        """The distinct files diagnostics point into, sorted."""
        return sorted({diagnostic.file for diagnostic in self.diagnostics})

    def by_rule(self, rule: str) -> list[Diagnostic]:
        return [d for d in self if d.rule == rule]

    def matrix(self) -> dict[str, dict[str, int]]:
        """Rule x severity counts (the dashboard's matrix input)."""
        table: dict[str, dict[str, int]] = {}
        for diagnostic in self.diagnostics:
            row = table.setdefault(diagnostic.rule, {})
            row[diagnostic.severity] = row.get(diagnostic.severity, 0) + 1
        return table

    def summary(self) -> str:
        counts = self.counts()
        parts = [
            f"{counts[severity]} {severity}{'s' if counts[severity] != 1 else ''}"
            for severity in SEVERITIES
            if counts[severity]
        ]
        return ", ".join(parts) if parts else "clean"
