"""``repro-trace`` — inspect and validate exported trace files.

Reads a Chrome ``trace_event`` JSON file produced by the ``--trace`` flag of
``repro-faults`` (or any tool emitting the format) through
:func:`~repro.obs.export.report_from_trace` and:

- prints a summary (span count, top spans, counters, campaign summary),
- ``--validate`` checks the payload against the trace_event schema before
  anything else reads it (exit code 2 on problems) — what the CI
  ``campaign-smoke`` job runs,
- ``--expect-counter NAME=VALUE`` asserts a merged counter's final value
  (exit code 1 on mismatch) — how CI reconciles event and scenario counts.
  A counter that never moved is absent from the trace and reads 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .export import report_from_trace, validate_trace_events


def _parse_expectation(text: str) -> tuple[str, float]:
    name, _, value = text.partition("=")
    if not name or not value:
        raise argparse.ArgumentTypeError(
            f"expected NAME=VALUE, got {text!r}"
        )
    try:
        return name, float(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"bad counter value in {text!r}") from error


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Inspect and validate repro trace_event files.",
    )
    parser.add_argument("trace", type=Path, help="trace_event JSON file to read")
    parser.add_argument(
        "--validate",
        action="store_true",
        help="check the file against the trace_event schema (exit 2 on problems)",
    )
    parser.add_argument(
        "--expect-counter",
        action="append",
        type=_parse_expectation,
        default=[],
        metavar="NAME=VALUE",
        help="assert a counter's final value (repeatable; exit 1 on mismatch)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the summary (checks still run)"
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = json.loads(args.trace.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        print(f"repro-trace: cannot read {args.trace}: {error}", file=sys.stderr)
        return 2

    if args.validate:
        problems = validate_trace_events(payload)
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        if problems:
            return 2
    try:
        report = report_from_trace(payload)
    except (TypeError, ValueError) as error:
        print(f"repro-trace: cannot read {args.trace}: {error}", file=sys.stderr)
        return 2

    if not args.quiet:
        print(
            f"{args.trace}: {len(report.events)} spans, "
            f"{len(report.counters)} counters"
        )
        spans = report.span_stats()
        if spans:
            print("top spans (by total time):")
            for name, stats in list(spans.items())[:10]:
                print(
                    f"  {name}: n={stats['count']:g} total={stats['total']:.3f}s "
                    f"mean={1e3 * stats['mean']:.2f}ms"
                )
        if report.counters:
            print("counters:")
            for name in sorted(report.counters):
                print(f"  {name} = {report.counters[name]:g}")
        print("campaign summary:")
        for key, value in report.summary().items():
            print(f"  {key} = {value}")
        if args.validate:
            print("trace_event schema: OK")

    status = 0
    for name, expected in args.expect_counter:
        # Traces carry only the counters that moved (``Tracer.collect``).
        actual = report.counters.get(name, 0.0)
        if abs(actual - expected) > 1e-9:
            print(
                f"COUNTER MISMATCH: {name} expected {expected:g}, got "
                f"{f'{actual:g}' if name in report.counters else 'missing (0)'}",
                file=sys.stderr,
            )
            status = 1
        elif not args.quiet:
            print(f"counter {name} = {actual:g}: OK")

    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
