"""``repro-report`` — render campaign results into one self-contained HTML file.

Inputs compose; every flag is repeatable where it makes sense, and each
adds one section to the dashboard:

- ``--store DIR``: a content-addressed :class:`~repro.store.RunStore`
  campaign directory (record census by engine + stored-ADC envelope);
- ``--telemetry FILE``: a Chrome ``trace_event`` JSON file or a telemetry
  JSONL dump (span timeline, counters, latency percentiles);
- ``--lint FILE``: a ``repro-lint --json`` findings report (severity
  tiles, rule × severity matrix, per-file and per-finding tables);
- ``--bench DIR``: a directory of ``BENCH_<name>.json`` snapshots;
- ``--history DIR``: a ``benchmarks/history`` directory of per-benchmark
  JSONL files — merged with the snapshots into cross-commit trend lines
  with regression markers.

``--smoke`` is the CI profile: it runs a 16-run traced fault campaign on
the RC1 benchmark circuit, folds in the repository's committed
``BENCH_*.json`` snapshots and ``benchmarks/history/``, writes the
dashboard, and then *verifies* it — the page must parse, contain the
fault/telemetry/bench section anchors, and reference nothing external.
Exit status 1 when the verification fails.

Typical use::

    repro-report --smoke --out dashboard.html
    repro-report --store campaign/ --telemetry trace.json --out report.html
    repro-report --bench . --history benchmarks/history --out bench.html
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..obs.export import report_from_jsonl, report_from_trace
from ..perf.baseline import BaselineStore, PerfError
from ..store import RunStore, StoreError
from .dashboard import Dashboard, verify_dashboard
from .history import DEFAULT_HISTORY_DIR, load_history, merge_latest
from .sections import (
    bench_section,
    fault_section,
    lint_section,
    store_section,
    telemetry_section,
)

#: Activation-time fractions of the smoke campaign: 3 digital faults × 4
#: times + 3 analog faults + 1 golden run = 16 platform runs.
SMOKE_ACTIVATION_FRACTIONS = (0.3, 0.45, 0.6, 0.75)
SMOKE_DURATION = 1.2e-4
#: Anchors the smoke dashboard must contain (checked by CI).
SMOKE_ANCHORS = ("faults", "telemetry", "bench")


def _load_telemetry(path: Path):
    """A telemetry file → report: trace_event JSON or JSONL, sniffed."""
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, (dict, list)):
            if isinstance(payload, dict) and payload.get("kind") == "summary":
                return report_from_jsonl(text)
            return report_from_trace(payload)
    return report_from_jsonl(text)


def run_smoke_campaign():
    """The 16-run traced fault campaign the ``--smoke`` dashboard renders."""
    from ..circuits import benchmark_by_name
    from ..fault.campaign import FaultCampaignRunner, FaultCampaignSpec
    from ..fault.cli import silent_sentinel
    from ..fault.models import (
        AdcStuckBitFault,
        MemoryBitFlipFault,
        ParameterDriftFault,
        UartCorruptionFault,
    )
    from ..sim.sources import SquareWave
    from ..sweep.platform import PlatformScenarioSpec
    from ..vp.firmware import threshold_monitor_source

    bench = benchmark_by_name("RC1")
    stimuli = {name: SquareWave(period=4e-5) for name in bench.stimuli}
    sentinel = silent_sentinel(bench.circuit())
    faults = [
        sentinel,  # negligible drift: the classifier's silent floor
        ParameterDriftFault(sentinel.branch, 2.0),
        ParameterDriftFault(sentinel.branch, 0.5),
        AdcStuckBitFault(bit=9, stuck_at=1),
        MemoryBitFlipFault(bit=0),
        UartCorruptionFault(0x20),
    ]
    spec = FaultCampaignSpec(
        faults=faults,
        activation_times=tuple(
            fraction * SMOKE_DURATION for fraction in SMOKE_ACTIVATION_FRACTIONS
        ),
        scenarios=PlatformScenarioSpec(
            firmwares={"threshold": threshold_monitor_source(500)}
        ),
        seed=0,
    )
    runner = FaultCampaignRunner(
        bench.build, bench.output, stimuli, trace=True, progress=False
    )
    return runner.run(spec, SMOKE_DURATION)


def _repo_root() -> Path:
    from ..perf.cli import repo_root

    return repo_root()


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
        help="render a trace_event JSON or telemetry JSONL file (repeatable)",
    )
    parser.add_argument(
        "--bench",
        action="append",
        default=[],
        metavar="DIR",
        help="render BENCH_*.json snapshots from this directory (repeatable)",
    )
    parser.add_argument(
        "--lint",
        action="append",
        default=[],
        metavar="FILE",
        help="render a repro-lint JSON report (written by repro-lint --json; "
        "repeatable)",
    )
    parser.add_argument(
        "--history",
        default=None,
        metavar="DIR",
        help=f"benchmark history directory (default {DEFAULT_HISTORY_DIR}/ "
        "under the repo root when present)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="regression-marker tolerance for trend lines (default 0.30)",
    )
    parser.add_argument("--title", default="repro dashboard", help="page title")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI profile: run a 16-run traced fault campaign, add the "
        "committed bench snapshots and history, then verify the output",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="after writing, verify the page parses, anchors resolve and "
        "nothing external is referenced (exit 1 on violations); implied "
        "by --smoke",
    )
    arguments = parser.parse_args(argv)

    dashboard = Dashboard(title=arguments.title)
    anchors: list[str] = []

    if arguments.smoke:
        print("repro-report: running the 16-run smoke fault campaign (traced)...")
        result = run_smoke_campaign()
        print(
            f"  {result.n_runs} runs ({result.n_faulted} faulted), "
            f"coverage {result.coverage_text()}"
        )
        dashboard.add(fault_section(result))
        anchors.append("faults")
        if result.telemetry is not None:
            dashboard.add(telemetry_section(result.telemetry))
            anchors.append("telemetry")
        root = _repo_root()
        if not arguments.bench:
            arguments.bench = [str(root)]
        if arguments.history is None and (root / DEFAULT_HISTORY_DIR).exists():
            arguments.history = str(root / DEFAULT_HISTORY_DIR)

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
            report = _load_telemetry(path)
        except (OSError, json.JSONDecodeError, ValueError) as error:
            print(f"repro-report: cannot read {path}: {error}", file=sys.stderr)
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

    latest = {}
    try:
        for directory in arguments.bench:
            latest.update(BaselineStore(directory).load_all())
        history = load_history(arguments.history) if arguments.history else {}
    except PerfError as error:
        print(f"repro-report: {error}", file=sys.stderr)
        return 2
    if latest or history:
        series = merge_latest(history, latest)
        dashboard.add(
            bench_section(series, tolerance=arguments.tolerance)
        )
        anchors.append("bench")

    if not dashboard.sections:
        parser.error(
            "nothing to render: pass --store/--telemetry/--bench (or --smoke)"
        )

    path = dashboard.write(arguments.out)
    html_text = path.read_text(encoding="utf-8")
    print(
        f"wrote {path} ({len(html_text) / 1024:.0f} KiB, "
        f"{len(dashboard.sections)} section(s))"
    )

    if arguments.smoke or arguments.check:
        required = SMOKE_ANCHORS if arguments.smoke else tuple(anchors)
        problems = verify_dashboard(html_text, required)
        for problem in problems:
            print(f"VERIFY FAILURE: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(
            f"dashboard verified: parses, anchors "
            f"{', '.join('#' + anchor for anchor in required)} present, "
            f"no external references"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
