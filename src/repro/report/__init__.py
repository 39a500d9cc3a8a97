"""``repro.report`` — self-contained HTML dashboards for campaign results.

One page, zero external assets: every chart is inline SVG generated by
:mod:`repro.report.svg`, styled by a palette embedded in the page's own
``<style>`` block (with a ``prefers-color-scheme`` dark variant).  The
section adapters in :mod:`repro.report.sections` know how to render each
of the repo's result types — fault campaigns, telemetry, differential
fuzzing, lint reports and run stores — and
:class:`Dashboard` stitches them into a single HTML file that survives
being mailed around or attached to a CI run as an artifact.

Entry point: the ``repro-report`` CLI (:mod:`repro.report.cli`).
"""

from .dashboard import (
    Dashboard,
    collect_ids,
    self_contained_problems,
    verify_dashboard,
)
from .sections import (
    Section,
    fault_section,
    fuzz_section,
    lint_section,
    store_section,
    telemetry_section,
)
from .svg import (
    coverage_matrix_table,
    envelope_chart,
    timeline_chart,
)

__all__ = [
    "Dashboard",
    "Section",
    "collect_ids",
    "coverage_matrix_table",
    "envelope_chart",
    "fault_section",
    "fuzz_section",
    "lint_section",
    "self_contained_problems",
    "store_section",
    "telemetry_section",
    "timeline_chart",
    "verify_dashboard",
]
