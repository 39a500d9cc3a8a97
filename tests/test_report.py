"""Tests of the dashboard generator (``repro.report``).

The layer's guarantees: every chart primitive HTML-escapes the dynamic
text it embeds (span names, fault names, netlist names — ``<``, ``&`` and
quotes included), the rendered page is fully self-contained (no external
reference of any kind, machine-checked), benchmark history appends one
line per commit with atomic replace-on-republish semantics, trend series
carry regression markers from :func:`~repro.perf.baseline.compare_records`,
and the ``repro-report --smoke`` acceptance path — a 16-run traced fault
campaign plus the committed ``BENCH_*.json`` snapshots — produces one HTML
file holding an envelope plot, a coverage matrix, a span timeline and a
multi-point trend line.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs.telemetry import TelemetryReport
from repro.perf.baseline import BenchmarkRecord, PerfError
from repro.report import (
    Dashboard,
    Section,
    append_history,
    bench_section,
    collect_ids,
    coverage_matrix_table,
    envelope_chart,
    fault_section,
    fuzz_section,
    history_path,
    load_history,
    store_section,
    load_history_file,
    merge_latest,
    self_contained_problems,
    telemetry_section,
    timeline_chart,
    trend_chart,
    trend_series,
    verify_dashboard,
)
from repro.report.svg import (
    data_table,
    decimate,
    esc,
    kv_table,
    nice_ticks,
    series_class,
    stat_tile,
    warning_banner,
)

#: A name exercising every character class the escapers must neutralize.
NASTY = '<script>&"evil"&\'x\'</script>'


def record(
    name: str = "bench",
    commit: "str | None" = "aaaabbbbcccc",
    smoke: bool = True,
    **metrics: float,
) -> BenchmarkRecord:
    metrics = metrics or {"steps_per_second": 100.0}
    return BenchmarkRecord(
        name=name,
        metrics=dict(metrics),
        maximize=tuple(metrics),
        meta={"git_commit": commit, "git_dirty": False, "smoke": smoke},
    )


def telemetry(events=(), dropped: int = 0, counters=None) -> TelemetryReport:
    return TelemetryReport(
        engine="test-engine",
        scenarios=4,
        executed=4,
        loaded=0,
        wall=2.0,
        workers=1,
        latencies=np.asarray([0.1, 0.2, 0.3, 0.4]),
        counters=dict(counters or {}),
        events=list(events),
        dropped=dropped,
    )


def span(name: str, ts: float, dur: float, pid: int = 0, args=None) -> dict:
    return {
        "ph": "X", "name": name, "cat": "t", "ts": ts, "dur": dur,
        "args": args, "pid": pid,
    }


class TestSvgPrimitives:
    def test_nice_ticks_cover_the_domain_with_clean_steps(self):
        ticks = nice_ticks(0.0, 10.0)
        assert ticks[0] == 0.0
        assert ticks[-1] == 10.0
        assert all(b > a for a, b in zip(ticks, ticks[1:]))

    def test_series_slots_fold_past_eight_never_cycle(self):
        assert series_class(0) == "s1"
        assert series_class(7) == "s8"
        assert series_class(8) == "s-other"
        assert series_class(100) == "s-other"

    def test_decimation_is_conservative_for_envelopes(self):
        values = list(range(1000))
        values[500] = 10_000  # a single excursion must survive pooling
        assert max(decimate(values, 50, "max")) == 10_000
        assert min(decimate([-v for v in values], 50, "min")) == -10_000
        assert len(decimate(values, 50, "mean")) == 50
        assert decimate([1.0, 2.0], 50, "max") == [1.0, 2.0]

    def test_envelope_chart_band_and_center(self):
        x = list(range(100))
        chart = envelope_chart(
            x, [0.0] * 100, [2.0] * 100, [1.0] * 100, title="env",
        )
        assert "<svg" in chart and "polygon" in chart and "polyline" in chart
        assert 'class="band s1-fill"' in chart
        assert "nan" not in chart.lower()

    def test_envelope_chart_empty_inputs_degrade_to_a_note(self):
        assert "no samples" in envelope_chart([], [], [], [], title="env")
        assert "no samples" in envelope_chart([1], [], [], [], title="env")

    def test_trend_chart_marks_regressions_as_critical(self):
        chart = trend_chart(
            ["aaaa", "bbbb"], [100.0, 50.0], title="m",
            regressed={1: "lost 50%"},
        )
        assert 'class="marker st-critical"' in chart
        assert "REGRESSION: lost 50%" in chart
        # non-regressed point keeps the series marker
        assert 'class="marker s1-fill-solid"' in chart

    def test_single_point_trend_has_no_line(self):
        chart = trend_chart(["aaaa"], [1.0], title="m")
        assert "polyline" not in chart
        assert "circle" in chart

    def test_timeline_lanes_per_pid_and_fold_past_eight_names(self):
        spans = [span(f"name{i}", float(i), 1.0, pid=i % 2) for i in range(12)]
        chart = timeline_chart(spans)
        assert chart.count("pid 0") == 1 and chart.count("pid 1") == 1
        assert "s-other-fill" in chart  # 12 names > 8 slots: folded, not cycled
        assert "4 more" in chart

    def test_timeline_truncation_is_loud(self):
        spans = [span("s", float(i), 1.0) for i in range(1600)]
        chart = timeline_chart(spans)
        assert "1500 longest of 1600" in chart
        assert chart.count("<rect") == 1500

    def test_coverage_matrix_counts_stay_text_color_only_washes(self):
        matrix = {"drift": {"silent": 2, "crash": 1}}
        table = coverage_matrix_table(matrix, ["silent", "crash"])
        assert "st-critical-wash" in table and "st-neutral-wash" in table
        assert "--cell-alpha" in table
        # glyph + label, never color alone
        assert "✗" in table and "silent" in table


class TestHtmlEscaping:
    """Every emitter must neutralize ``<``, ``&`` and quotes in dynamic text."""

    def assert_escaped(self, markup: str):
        assert "<script>" not in markup
        assert '&"' not in markup
        assert "&amp;" in markup and "&lt;" in markup and "&quot;" in markup

    def test_esc_handles_all_quote_kinds(self):
        escaped = esc(NASTY)
        assert "<" not in escaped.replace("&lt;", "")
        assert "&quot;" in escaped and "&#x27;" in escaped

    def test_tables_tiles_and_banner(self):
        self.assert_escaped(stat_tile(NASTY, NASTY, NASTY))
        self.assert_escaped(kv_table([(NASTY, NASTY)], caption=NASTY))
        self.assert_escaped(data_table([NASTY], [[NASTY]], caption=NASTY))
        self.assert_escaped(warning_banner(NASTY))

    def test_chart_titles_and_labels(self):
        self.assert_escaped(
            envelope_chart([0, 1], [0, 0], [1, 1], [0.5, 0.5], title=NASTY,
                           x_label=NASTY, center_label=NASTY, band_label=NASTY)
        )
        self.assert_escaped(trend_chart([NASTY], [1.0], title=NASTY))

    def test_span_names_in_timeline(self):
        self.assert_escaped(timeline_chart([span(NASTY, 0.0, 1.0)]))

    def test_fault_kind_names_in_matrix(self):
        self.assert_escaped(
            coverage_matrix_table({NASTY: {"silent": 1}}, ["silent"])
        )

    def test_section_titles_and_page_chrome(self):
        page = Dashboard(title=NASTY, subtitle=NASTY).add(
            Section("s", NASTY, "<p>ok</p>")
        ).render()
        self.assert_escaped(page)

    def test_netlist_names_in_fuzz_section(self):
        class Report:
            seed, checked, worst_error = 0, 1, 0.0
            failures = [(NASTY, NASTY)]
            reproducers = [NASTY]

        self.assert_escaped(fuzz_section(Report()).body)

    def test_telemetry_span_names(self):
        report = telemetry(events=[span(NASTY, 0.0, 1.0)])
        self.assert_escaped(telemetry_section(report).body)


class TestSelfContainment:
    def test_clean_page_has_no_problems(self):
        page = Dashboard().add(Section("a", "A", "<p>hi</p>")).render()
        assert self_contained_problems(page) == []
        assert verify_dashboard(page, ("a",)) == []

    @pytest.mark.parametrize(
        "poison",
        [
            '<a href="https://example.com">x</a>',
            '<script src="cdn.js"></script>',
            '<link rel="stylesheet" href="style.css">',
            '<img src="chart.png">',
            '<iframe src="page.html"></iframe>',
            "<style>@import 'other.css';</style>",
            "<style>body{background:url(texture.png)}</style>",
        ],
    )
    def test_every_external_reference_kind_is_caught(self, poison):
        page = Dashboard().add(Section("a", "A", poison)).render()
        assert self_contained_problems(page)
        assert verify_dashboard(page)

    def test_missing_anchor_is_a_violation(self):
        page = Dashboard().add(Section("a", "A", "<p>hi</p>")).render()
        assert any(
            "missing section anchor #b" in problem
            for problem in verify_dashboard(page, ("a", "b"))
        )

    def test_collect_ids_sees_section_anchors(self):
        page = Dashboard().add(Section("first", "F", "")).add(
            Section("second", "S", "")
        ).render()
        assert {"first", "second"} <= collect_ids(page)


class TestHistory:
    def test_append_creates_one_line_per_commit(self, tmp_path):
        append_history(record(commit="a" * 12), tmp_path)
        append_history(record(commit="b" * 12), tmp_path)
        lines = history_path(tmp_path, "bench").read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["meta"]["git_commit"] for line in lines] == [
            "a" * 12, "b" * 12,
        ]

    def test_republish_same_commit_replaces_not_duplicates(self, tmp_path):
        append_history(record(steps_per_second=100.0), tmp_path)
        append_history(record(steps_per_second=120.0), tmp_path)
        records = load_history_file(history_path(tmp_path, "bench"))
        assert len(records) == 1
        assert records[0].metrics["steps_per_second"] == 120.0

    def test_no_git_identity_always_appends(self, tmp_path):
        append_history(record(commit=None), tmp_path)
        append_history(record(commit=None), tmp_path)
        assert len(load_history_file(history_path(tmp_path, "bench"))) == 2

    def test_load_history_maps_name_to_records(self, tmp_path):
        append_history(record(name="iss"), tmp_path)
        append_history(record(name="de_kernel"), tmp_path)
        history = load_history(tmp_path)
        assert set(history) == {"iss", "de_kernel"}
        assert load_history(tmp_path / "missing") == {}

    def test_malformed_line_names_file_and_line(self, tmp_path):
        path = history_path(tmp_path, "bench")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"name": "bench", "metrics": {"m": 1.0}}\n{"broken": 1}\n')
        with pytest.raises(PerfError, match=r"bench\.jsonl:2"):
            load_history_file(path)

    def test_trend_series_marks_regressions(self):
        records = [
            record(commit="a" * 12, steps_per_second=100.0),
            record(commit="b" * 12, steps_per_second=30.0),  # lost 70%
            record(commit="c" * 12, steps_per_second=31.0),
        ]
        (trend,) = trend_series("bench", records, tolerance=0.30)
        assert trend.metric == "steps_per_second"
        assert [point.label for point in trend.points] == [
            "aaaaaaaa", "bbbbbbbb", "cccccccc",
        ]
        assert trend.points[0].regression is None
        assert trend.points[1].regression is not None
        assert trend.points[2].regression is None

    def test_trend_series_skips_cross_workload_comparison(self):
        records = [
            record(commit="a" * 12, smoke=True, steps_per_second=1000.0),
            record(commit="b" * 12, smoke=False, steps_per_second=10.0),
        ]
        (trend,) = trend_series("bench", records)
        assert all(point.regression is None for point in trend.points)

    def test_merge_latest_replaces_same_commit_else_appends(self):
        history = {"bench": [record(commit="a" * 12, steps_per_second=1.0),
                             record(commit="b" * 12, steps_per_second=2.0)]}
        merged = merge_latest(
            history, {"bench": record(commit="b" * 12, steps_per_second=3.0)}
        )
        assert [r.metrics["steps_per_second"] for r in merged["bench"]] == [1.0, 3.0]
        merged = merge_latest(
            history, {"bench": record(commit="c" * 12, steps_per_second=4.0)}
        )
        assert len(merged["bench"]) == 3
        # history dict is not mutated
        assert len(history["bench"]) == 2

    def test_bench_section_renders_multi_point_trend(self):
        series = {"iss": [record(name="iss", commit="a" * 12),
                          record(name="iss", commit="b" * 12)]}
        section = bench_section(series)
        assert section.slug == "bench"
        assert 'id="bench-iss"' in section.body
        assert "polyline" in section.body  # >= 2 points -> an actual line


class TestTelemetrySection:
    def test_truncated_report_warns_loudly(self):
        section = telemetry_section(telemetry(dropped=7))
        assert "TRUNCATED" in section.body
        assert "7 event(s)" in section.body

    def test_complete_report_has_no_warning(self):
        assert "TRUNCATED" not in telemetry_section(telemetry()).body

    def test_counters_and_spans_render(self):
        report = telemetry(
            events=[span("simulate", 0.0, 1.0), span("simulate", 1.0, 2.0)],
            counters={"store.hits": 3.0},
        )
        body = telemetry_section(report).body
        assert "store.hits" in body
        assert "simulate" in body
        assert "<svg" in body


class TestSmokeAcceptance:
    """The acceptance path: one invocation, every visualization present."""

    @pytest.fixture(scope="class")
    def smoke(self, tmp_path_factory):
        from repro.report.cli import main

        out = tmp_path_factory.mktemp("report") / "dashboard.html"
        code = main(["--smoke", "--out", str(out)])
        return code, out.read_text(encoding="utf-8")

    def test_exit_zero_and_verified(self, smoke):
        code, page = smoke
        assert code == 0
        assert verify_dashboard(page, ("faults", "telemetry", "bench")) == []

    def test_sixteen_run_campaign_rendered(self, smoke):
        _, page = smoke
        assert "16 runs" in page

    def test_envelope_coverage_timeline_and_trend_all_present(self, smoke):
        _, page = smoke
        assert "ADC stream envelope" in page
        assert 'class="matrix"' in page  # coverage matrix
        assert "Span timeline" in page
        # the committed history gives >= 2 points, so trend polylines exist
        assert 'class="chart trend"' in page
        assert page.count('class="line s1"') >= 2

    def test_page_is_one_self_contained_file(self, smoke):
        _, page = smoke
        assert self_contained_problems(page) == []
        assert "<style>" in page and "prefers-color-scheme" in page


class TestFaultSectionUnit:
    def test_fault_section_from_smoke_campaign(self):
        from repro.report.cli import run_smoke_campaign

        result = run_smoke_campaign()
        section = fault_section(result)
        assert section.slug == "faults"
        assert "coverage" in section.body.lower() or "Coverage" in section.body
        assert "<svg" in section.body  # the envelope plot
        assert result.n_runs == 16


class TestStoreSection:
    def test_trace_envelope_from_a_fault_campaign_store(self, tmp_path, monkeypatch):
        from repro.circuits import rc_benchmark
        from repro.fault import AdcStuckBitFault, FaultCampaignRunner, FaultCampaignSpec
        from repro.report import sections
        from repro.sim import SquareWave
        from repro.store import RunStore

        spec = FaultCampaignSpec(
            faults=[AdcStuckBitFault(bit=9)], activation_times=(1e-5,)
        )
        result = FaultCampaignRunner(
            rc_benchmark(1).build,
            "out",
            {"vin": SquareWave(period=1e-5)},
            store=tmp_path,
            progress=False,
        ).run(spec, 2e-5)
        plotted = {}

        def envelope(x, low, high, center, **labels):
            plotted.update(low=low, high=high, title=labels["title"])
            return "<svg></svg>"

        monkeypatch.setattr(sections, "envelope_chart", envelope)
        section = store_section(RunStore(tmp_path))
        assert "platform-sweep" in section.body
        # The band spans exactly the stored traces, decoded from their blocks.
        traces = np.array([run.analog_trace for run in result.results])
        assert traces.shape == (2, 400)
        assert plotted["low"] == traces.min(axis=0).tolist()
        assert plotted["high"] == traces.max(axis=0).tolist()
        assert "envelope of 2 runs" in plotted["title"]
