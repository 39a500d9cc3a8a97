"""``repro-report`` — render campaign results into one self-contained HTML file.

Inputs compose; every flag is repeatable where it makes sense, and each
adds one section to the dashboard:

- ``--store DIR``: a content-addressed :class:`~repro.store.RunStore`
  campaign directory (record census by engine + stored-ADC envelope);
- ``--telemetry FILE``: a Chrome ``trace_event`` JSON file as
  ``repro-faults --trace`` writes it, read through
  :func:`~repro.obs.export.report_from_trace` (span timeline, counters,
  latency percentiles); a file that yields no spans and no counters is an
  error (exit 2);
- ``--lint FILE``: a ``repro-lint --json`` findings report (severity
  tiles, rule × severity matrix, per-file and per-finding tables).

``--check`` then *verifies* the written page — it must parse, contain
every section anchor, and reference nothing external; exit status 1 when
the verification fails.  A fault campaign renders its own page with
``repro-faults --report`` (fault and telemetry sections).

Typical use::

    repro-report --store campaign/ --telemetry trace.json --out report.html
    repro-report --telemetry trace.json --check --out telemetry.html
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..obs.export import report_from_trace
from ..store import RunStore, StoreError
from .dashboard import Dashboard, verify_dashboard
from .sections import lint_section, store_section, telemetry_section


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-report", description=__doc__)
    parser.add_argument(
        "--out", default="dashboard.html", help="output HTML file (default dashboard.html)"
    )
    parser.add_argument(
        "--store",
        action="append",
        default=[],
        metavar="DIR",
        help="render a campaign run-store directory (repeatable)",
    )
    parser.add_argument(
        "--telemetry",
        action="append",
        default=[],
        metavar="FILE",
        help="render a trace_event JSON file (repeatable)",
    )
    parser.add_argument(
        "--lint",
        action="append",
        default=[],
        metavar="FILE",
        help="render a repro-lint JSON report (written by repro-lint --json; "
        "repeatable)",
    )
    parser.add_argument("--title", default="repro dashboard", help="page title")
    parser.add_argument(
        "--check",
        action="store_true",
        help="after writing, verify the page parses, anchors resolve and "
        "nothing external is referenced (exit 1 on violations)",
    )
    arguments = parser.parse_args(argv)

    dashboard = Dashboard(title=arguments.title)
    anchors: list[str] = []

    for directory in arguments.store:
        slug = f"store-{len(anchors)}" if len(arguments.store) > 1 else "store"
        try:
            dashboard.add(store_section(RunStore(directory), slug=slug))
        except StoreError as error:
            print(f"repro-report: {error}", file=sys.stderr)
            return 2
        anchors.append(slug)

    for index, file_name in enumerate(arguments.telemetry):
        path = Path(file_name)
        try:
            report = report_from_trace(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, TypeError, ValueError) as error:
            print(f"repro-report: cannot read {path}: {error}", file=sys.stderr)
            return 2
        if not report.events and not report.counters:
            print(
                f"repro-report: {path} holds no telemetry events or counters",
                file=sys.stderr,
            )
            return 2
        slug = (
            f"telemetry-{index}" if len(arguments.telemetry) > 1 else "telemetry"
        )
        dashboard.add(telemetry_section(report, slug=slug))
        anchors.append(slug)

    for index, file_name in enumerate(arguments.lint):
        path = Path(file_name)
        try:
            from ..lint import from_json

            report = from_json(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            print(f"repro-report: cannot read {path}: {error}", file=sys.stderr)
            return 2
        slug = f"lint-{index}" if len(arguments.lint) > 1 else "lint"
        dashboard.add(lint_section(report, slug=slug))
        anchors.append(slug)

    if not dashboard.sections:
        parser.error("nothing to render: pass --store/--telemetry/--lint")

    path = dashboard.write(arguments.out)
    html_text = path.read_text(encoding="utf-8")
    print(
        f"wrote {path} ({len(html_text) / 1024:.0f} KiB, "
        f"{len(dashboard.sections)} section(s))"
    )

    if arguments.check:
        problems = verify_dashboard(html_text, anchors)
        for problem in problems:
            print(f"VERIFY FAILURE: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(
            f"dashboard verified: parses, anchors "
            f"{', '.join('#' + anchor for anchor in anchors)} present, "
            f"no external references"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
