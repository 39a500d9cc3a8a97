"""Adapters: live result objects → dashboard sections.

Each ``*_section`` function accepts one of the repo's result types —
:class:`~repro.sweep.results.SweepResult`,
:class:`~repro.sweep.platform.PlatformSweepResult`,
:class:`~repro.fault.report.FaultCampaignResult`,
:class:`~repro.obs.telemetry.TelemetryReport`, benchmark history — and
returns a :class:`Section`: an anchor slug, a title, and a self-contained
HTML body built from the :mod:`repro.report.svg` primitives.  The
:class:`~repro.report.dashboard.Dashboard` assembles sections into one
page; this module owns *what* each result type shows, not page chrome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .svg import (
    esc as _esc,
    coverage_matrix_table,
    data_table,
    envelope_chart,
    kv_table,
    stat_tile,
    tile_row,
    timeline_chart,
    trend_chart,
    warning_banner,
)
from .history import MetricTrend, trend_series

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fault.report import FaultCampaignResult
    from ..obs.telemetry import TelemetryReport
    from ..perf.baseline import BenchmarkRecord
    from ..sweep.platform import PlatformSweepResult
    from ..sweep.results import SweepResult


@dataclass
class Section:
    """One dashboard section: anchor slug, human title, HTML body."""

    slug: str
    title: str
    body: str


def svg_slug(name: str) -> str:
    """A conservative anchor slug (ASCII letters/digits/dashes only)."""
    return "".join(
        char if char.isalnum() else "-" for char in str(name).lower()
    ).strip("-") or "x"


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    return f"{1e3 * seconds:.2f} ms"


# -- telemetry -------------------------------------------------------------------------
def telemetry_section(
    report: "TelemetryReport", slug: str = "telemetry"
) -> Section:
    """Telemetry: headline tiles, span timeline, counters, span stats."""
    tiles = [
        stat_tile("Scenarios", str(report.scenarios),
                  f"{report.executed} executed, {report.loaded} loaded"),
        stat_tile("Wall clock", _fmt_seconds(report.wall),
                  f"{report.workers} worker(s)"),
        stat_tile("Throughput", f"{report.throughput:.2f}/s"),
    ]
    utilization = report.worker_utilization
    if utilization is not None:
        tiles.append(stat_tile("Worker utilization", f"{100.0 * utilization:.1f}%"))
    if report.codegen_hit_rate is not None:
        tiles.append(
            stat_tile("Codegen hit rate", f"{100.0 * report.codegen_hit_rate:.1f}%")
        )
    if report.store_hit_rate is not None:
        tiles.append(
            stat_tile("Store hit rate", f"{100.0 * report.store_hit_rate:.1f}%")
        )
    parts = [tile_row(tiles)]
    if report.dropped:
        parts.append(
            warning_banner(
                f"the tracer dropped {report.dropped} event(s) after hitting "
                f"its buffer cap — the timeline and span statistics below "
                f"are TRUNCATED and undercount the campaign (raise "
                f"max_events to capture everything)"
            )
        )
    percentiles = report.latency_percentiles()
    if percentiles:
        parts.append(
            kv_table(
                [(name, _fmt_seconds(value)) for name, value in percentiles.items()],
                caption="Scenario latency",
            )
        )
    parts.append(timeline_chart(report.events, title="Span timeline"))
    spans = report.span_stats()
    if spans:
        parts.append(
            data_table(
                ["span", "count", "total s", "mean ms"],
                [
                    [name, int(stats["count"]), f"{stats['total']:.3f}",
                     f"{1e3 * stats['mean']:.2f}"]
                    for name, stats in spans.items()
                ],
                caption="Span statistics",
            )
        )
    if report.counters:
        parts.append(
            data_table(
                ["counter", "value"],
                [[name, f"{report.counters[name]:g}"]
                 for name in sorted(report.counters)],
                caption="Counters",
            )
        )
    return Section(slug, f"Telemetry — {report.engine}", "".join(parts))


# -- fault campaigns -------------------------------------------------------------------
def _fault_envelope(result: "FaultCampaignResult") -> str:
    """ADC-stream envelope across every run, with the golden trace centered.

    The band is the min–max excursion the *fault universe* produced at each
    sample — the visual counterpart of the trace-divergence verdict.
    """
    traces = [
        np.asarray(run_result.analog_trace, dtype=float)
        for run_result in result.results
        if run_result.analog_trace
    ]
    if not traces:
        return ""
    length = min(trace.size for trace in traces)
    if length == 0:
        return ""
    matrix = np.stack([trace[:length] for trace in traces])
    golden = next(
        (
            np.asarray(run_result.analog_trace, dtype=float)[:length]
            for run, run_result in zip(result.runs, result.results)
            if run.golden and run_result.analog_trace
        ),
        None,
    )
    center = golden if golden is not None else np.median(matrix, axis=0)
    return envelope_chart(
        list(range(length)),
        matrix.min(axis=0).tolist(),
        matrix.max(axis=0).tolist(),
        center.tolist(),
        title=f"ADC stream envelope across {len(traces)} runs",
        x_label="ADC sample index",
        y_label="ADC value",
        center_label="golden" if golden is not None else "median",
        band_label="fault min–max",
    )


def fault_section(result: "FaultCampaignResult", slug: str = "faults") -> Section:
    """Fault campaign: coverage headline, verdict matrix, envelope, run table."""
    from ..fault.report import VERDICTS

    counts = result.counts()
    collapse = result.collapse()
    tiles = [
        stat_tile("Fault coverage", result.coverage_text(), "non-silent fraction"),
        stat_tile("Faulted runs", str(result.n_faulted),
                  f"{result.n_runs - result.n_faulted} golden"),
        stat_tile("Equivalence classes", str(len(collapse)), "after collapse"),
        stat_tile("Workers", str(result.workers)),
    ]
    parts = [tile_row(tiles)]
    parts.append(
        data_table(
            ["verdict", "runs"],
            [[verdict, counts[verdict]] for verdict in VERDICTS],
            caption="Verdicts",
        )
    )
    parts.append(coverage_matrix_table(result.coverage_matrix(), VERDICTS))
    envelope = _fault_envelope(result)
    if envelope:
        parts.append(envelope)
    multi = [group for group in collapse if len(group) > 1]
    if multi:
        parts.append(
            data_table(
                ["runs", "verdict", "members"],
                [
                    [len(group), group[0].verdict,
                     ", ".join(entry.run.fault.name for entry in group)]
                    for group in multi
                ],
                caption="Equivalent faults (collapsed)",
            )
        )
    parts.append(
        data_table(
            result._header_cells(),
            [result._row_cells(entry) for entry in result.verdicts()],
            caption="Faulted runs",
        )
    )
    return Section(slug, "Fault campaign", "".join(parts))


# -- parameter sweeps ------------------------------------------------------------------
def sweep_section(result: "SweepResult", slug: str = "sweep") -> Section:
    """Parameter sweep: envelope per output plus the ensemble summary."""
    tiles = [
        stat_tile("Scenarios", str(result.n_scenarios),
                  f"{result.executed_count} executed"),
        stat_tile("Backend", result.backend,
                  f"{result.structure_groups} structure group(s)"),
        stat_tile("Workers", str(result.workers)),
    ]
    parts = [tile_row(tiles)]
    times = result.times.tolist()
    for name in result.output_names():
        envelope = result.envelope(name)
        parts.append(
            envelope_chart(
                times,
                envelope["min"].tolist(),
                envelope["max"].tolist(),
                np.median(result.ensemble(name), axis=0).tolist(),
                title=f"{name} — ensemble envelope ({result.n_scenarios} scenarios)",
                x_label="time (s)",
                y_label=name,
            )
        )
    summary_rows = []
    for name, stats in result.summary().items():
        row = [name] + [f"{stats[key]:.6g}" for key in ("mean", "std", "min", "max")]
        summary_rows.append(row)
    parts.append(
        data_table(
            ["output", "mean", "std", "min", "max"],
            summary_rows,
            caption="Final values",
        )
    )
    return Section(slug, f"Sweep — {result.n_scenarios} scenarios", "".join(parts))


def platform_section(result: "PlatformSweepResult", slug: str = "platform") -> Section:
    """Platform sweep: per-style Table-III summary plus the ADC envelope."""
    tiles = [
        stat_tile("Scenarios", str(result.n_scenarios),
                  f"{result.executed_count} executed"),
        stat_tile("Simulated time", f"{result.duration:g} s",
                  f"timestep {result.timestep:g} s"),
        stat_tile("Workers", str(result.workers)),
    ]
    parts = [tile_row(tiles)]
    summary = result.summary_by_style()
    columns = ["style", "scenarios", "mean s", "speedup", "instr mean", "NRMSE max"]
    rows = []
    for style, entry in summary.items():
        rows.append(
            [
                style,
                entry["scenarios"],
                f"{entry['mean_time']:.4g}",
                f"{entry['speedup']:.3g}",
                f"{entry['instructions_mean']:.4g}",
                f"{entry.get('nrmse_max', float('nan')):.3g}",
            ]
        )
    parts.append(data_table(columns, rows, caption="Per-style summary"))
    traces = [
        np.asarray(run.analog_trace, dtype=float)
        for run in result.results
        if run.analog_trace
    ]
    if traces:
        length = min(trace.size for trace in traces)
        if length:
            matrix = np.stack([trace[:length] for trace in traces])
            parts.append(
                envelope_chart(
                    list(range(length)),
                    matrix.min(axis=0).tolist(),
                    matrix.max(axis=0).tolist(),
                    np.median(matrix, axis=0).tolist(),
                    title=f"ADC stream envelope across {len(traces)} scenarios",
                    x_label="ADC sample index",
                    y_label="ADC value",
                )
            )
    return Section(
        slug, f"Platform sweep — {result.n_scenarios} scenarios", "".join(parts)
    )


# -- benchmarks ------------------------------------------------------------------------
def bench_section(
    series: "dict[str, list[BenchmarkRecord]]",
    slug: str = "bench",
    tolerance: float = 0.30,
) -> Section:
    """Benchmark trends: per-metric lines across commits, one small multiple
    per metric (metrics span orders of magnitude — never one shared axis),
    with regression markers where a commit lost more than ``tolerance`` of
    the prior commit's performance."""
    parts = []
    total_points = sum(len(records) for records in series.values())
    tiles = [
        stat_tile("Benchmarks", str(len(series))),
        stat_tile("History points", str(total_points), "one per commit"),
    ]
    parts.append(tile_row(tiles))
    for name in sorted(series):
        records = series[name]
        trends: list[MetricTrend] = trend_series(name, records, tolerance)
        charts = []
        regress_total = 0
        for trend in trends:
            regressed = {
                index: point.regression
                for index, point in enumerate(trend.points)
                if point.regression
            }
            regress_total += len(regressed)
            charts.append(
                trend_chart(
                    [point.label for point in trend.points],
                    [point.value for point in trend.points],
                    title=trend.metric,
                    regressed=regressed,
                )
            )
        latest = records[-1]
        headline = (
            f"{len(records)} commit(s), {len(trends)} metric(s)"
            + (f", {regress_total} regression marker(s)" if regress_total else "")
        )
        parts.append(
            f'<h3 id="bench-{svg_slug(name)}">{_esc(name)}</h3>'
            f'<p class="sub">{_esc(headline)}</p>'
            f'<div class="trend-grid">' + "".join(charts) + "</div>"
        )
        meta_rows = [
            (key, latest.meta[key])
            for key in ("git_commit", "git_dirty", "python", "machine", "smoke")
            if key in latest.meta
        ]
        if meta_rows:
            parts.append(kv_table(meta_rows, caption=f"Latest {name} provenance"))
    if not series:
        parts.append('<p class="empty">no benchmark snapshots found</p>')
    return Section(slug, "Benchmark trends", "".join(parts))


# -- fuzzing ---------------------------------------------------------------------------
def fuzz_section(report, slug: str = "fuzz") -> Section:
    """Differential fuzz campaign: verdict tiles plus the failure table."""
    failed = len(report.failures)
    tiles = [
        stat_tile("Netlists checked", str(report.checked), f"seed {report.seed}"),
        stat_tile("Disagreements", str(failed)),
        stat_tile("Worst pairwise NRMSE", f"{report.worst_error:.3e}"),
    ]
    parts = [tile_row(tiles)]
    if report.failures:
        parts.append(
            data_table(
                ["netlist", "verdict"],
                [[name, summary] for name, summary in report.failures],
                caption="Failures",
            )
        )
        if report.reproducers:
            parts.append(
                data_table(
                    ["reproducer"],
                    [[path] for path in report.reproducers],
                    caption="Shrunk reproducers",
                )
            )
    else:
        parts.append(
            '<p class="sub">every netlist agreed across all engines</p>'
        )
    return Section(slug, "Differential fuzzing", "".join(parts))


# -- static analysis -------------------------------------------------------------------
def lint_section(report, slug: str = "lint") -> Section:
    """A :class:`~repro.lint.LintReport`: severity tiles, rule matrix, files.

    Fed either live or from the JSON the ``repro-lint --json`` emitter
    writes (``repro-report --lint findings.json``).  The rule × severity
    matrix reuses the fault-coverage table; severities carry their own
    status hues in :data:`~repro.report.svg.VERDICT_STATUS`.
    """
    from ..lint.diagnostics import SEVERITIES

    counts = report.counts()
    tiles = [
        stat_tile("Findings", str(len(report)), report.summary()),
        stat_tile("Errors", str(counts["error"])),
        stat_tile("Warnings", str(counts["warning"])),
        stat_tile("Files affected", str(len(report.files()))),
    ]
    parts = [tile_row(tiles)]
    if not report.ok:
        parts.append(
            warning_banner(
                f"{counts['error']} error-severity finding(s) — the strict "
                "gates (fuzz oracle, lint-enabled campaigns, CI) fail on these"
            )
        )
    if report:
        parts.append(
            coverage_matrix_table(
                report.matrix(), SEVERITIES, caption="Findings by rule × severity"
            )
        )
        per_file: dict[str, dict[str, int]] = {}
        for diagnostic in report:
            row = per_file.setdefault(
                diagnostic.file, {severity: 0 for severity in SEVERITIES}
            )
            row[diagnostic.severity] += 1
        parts.append(
            data_table(
                ["file", *SEVERITIES],
                [
                    [file, *[str(row[severity]) for severity in SEVERITIES]]
                    for file, row in sorted(per_file.items())
                ],
                caption="Findings per file",
            )
        )
        parts.append(
            data_table(
                ["location", "severity", "rule", "message", "hint"],
                [
                    [d.location(), d.severity, d.rule, d.message, d.hint]
                    for d in report
                ],
                caption="All findings",
            )
        )
    else:
        parts.append('<p class="sub">no findings — the linted set is clean</p>')
    return Section(slug, "Static analysis", "".join(parts))


# -- run stores ------------------------------------------------------------------------
def store_section(store, slug: str = "store") -> Section:
    """A :class:`~repro.store.RunStore` directory: record census + envelope.

    Groups committed records by their input ``engine`` tag; platform-sweep
    records (fault campaigns commit through the same engine) contribute
    their stored ADC traces to an envelope plot.
    """
    census: dict[str, int] = {}
    traces: list[np.ndarray] = []
    for key in store.keys():
        entry = store.entry(key)
        inputs = entry["inputs"]
        engine = str(inputs.get("engine", "unknown")) if isinstance(
            inputs, Mapping
        ) else "unknown"
        census[engine] = census.get(engine, 0) + 1
        result = entry["record"].get("result")
        if isinstance(result, Mapping) and result.get("analog_trace"):
            traces.append(np.asarray(result["analog_trace"], dtype=float))
    tiles = [stat_tile("Committed records", str(len(store)))]
    parts = [tile_row(tiles)]
    if census:
        parts.append(
            data_table(
                ["engine", "records"],
                sorted(census.items()),
                caption="Records by engine",
            )
        )
    if traces:
        length = min(trace.size for trace in traces)
        if length:
            matrix = np.stack([trace[:length] for trace in traces])
            parts.append(
                envelope_chart(
                    list(range(length)),
                    matrix.min(axis=0).tolist(),
                    matrix.max(axis=0).tolist(),
                    np.median(matrix, axis=0).tolist(),
                    title=f"Stored ADC traces — envelope of {len(traces)} runs",
                    x_label="ADC sample index",
                    y_label="ADC value",
                )
            )
    return Section(slug, f"Run store — {store.directory}", "".join(parts))


