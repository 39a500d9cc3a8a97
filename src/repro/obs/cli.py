"""``repro-trace`` — inspect, validate and convert exported trace files.

Reads a Chrome ``trace_event`` JSON file produced by the ``--trace`` flag of
``repro-faults`` (or any tool emitting the format) and:

- prints a summary (event counts by phase, top spans, counters),
- ``--validate`` checks the payload against the trace_event schema
  (exit code 2 on problems) — what the CI ``campaign-smoke`` job runs,
- ``--expect-counter NAME=VALUE`` asserts a merged counter's final value
  (exit code 1 on mismatch) — how CI reconciles event and scenario counts,
- ``--jsonl OUT`` re-exports the trace as the telemetry JSONL that
  :func:`~repro.obs.export.to_jsonl` writes (one summary line, then one
  line per counter and per event), which ``repro-report --telemetry``
  reads back.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .export import (
    counters_from_trace,
    report_from_trace,
    validate_trace_events,
    write_jsonl,
)


def _iter_events(payload: object) -> list[dict]:
    if isinstance(payload, dict):
        events = payload.get("traceEvents", [])
    elif isinstance(payload, list):
        events = payload
    else:
        events = []
    return [event for event in events if isinstance(event, dict)]


def _span_stats(events: list[dict]) -> dict[str, dict[str, float]]:
    totals: dict[str, list[float]] = {}
    for event in events:
        if event.get("ph") == "X" and isinstance(event.get("dur"), (int, float)):
            totals.setdefault(str(event.get("name")), []).append(float(event["dur"]))
    stats = {
        name: {
            "count": len(durations),
            "total_us": sum(durations),
            "mean_us": sum(durations) / len(durations),
        }
        for name, durations in totals.items()
    }
    return dict(sorted(stats.items(), key=lambda item: -item[1]["total_us"]))


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
        description="Inspect, validate and convert repro trace_event files.",
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
        "--jsonl",
        type=Path,
        default=None,
        metavar="OUT",
        help="re-export the trace as telemetry JSONL (readable by repro-report)",
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

    events = _iter_events(payload)
    counters = counters_from_trace(payload)

    if not args.quiet:
        phases: dict[str, int] = {}
        for event in events:
            phase = str(event.get("ph"))
            phases[phase] = phases.get(phase, 0) + 1
        print(f"{args.trace}: {len(events)} events")
        for phase in sorted(phases):
            print(f"  ph {phase}: {phases[phase]}")
        spans = _span_stats(events)
        if spans:
            print("top spans (by total time):")
            for name, stats in list(spans.items())[:10]:
                print(
                    f"  {name}: n={stats['count']} total={stats['total_us'] / 1e6:.3f}s "
                    f"mean={stats['mean_us'] / 1e3:.2f}ms"
                )
        if counters:
            print("counters:")
            for name in sorted(counters):
                print(f"  {name} = {counters[name]:g}")
        summary = payload.get("metadata", {}).get("repro") if isinstance(payload, dict) else None
        if summary:
            print("campaign summary:")
            for key, value in summary.items():
                print(f"  {key} = {value}")

    if args.jsonl is not None:
        report = report_from_trace(payload)
        write_jsonl(args.jsonl, report)
        if not args.quiet:
            print(
                f"wrote {len(report.events)} events and {len(report.counters)} "
                f"counters to {args.jsonl}"
            )

    status = 0
    if args.validate:
        problems = validate_trace_events(payload)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            status = 2
        elif not args.quiet:
            print("trace_event schema: OK")

    for name, expected in args.expect_counter:
        actual = counters.get(name)
        if actual is None or abs(actual - expected) > 1e-9:
            print(
                f"COUNTER MISMATCH: {name} expected {expected:g}, got "
                f"{'missing' if actual is None else f'{actual:g}'}",
                file=sys.stderr,
            )
            status = max(status, 1)
        elif not args.quiet:
            print(f"counter {name} = {actual:g}: OK")

    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
