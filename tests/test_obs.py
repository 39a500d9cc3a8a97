"""Tests of the observability subsystem (``repro.obs``).

The layer's guarantees: instrumentation is inert while tracing is disabled
(bit-identical sweep fingerprints, counters untouched), enabled tracing
yields counters that reconcile *exactly* with the result counters — serial
and multiprocess alike — and the exporters emit valid Chrome ``trace_event``
JSON that round-trips through the ``repro-trace`` CLI.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.circuits import build_rc_filter, rc_benchmark
from repro.fault import (
    AdcStuckBitFault,
    FaultCampaignRunner,
    FaultCampaignSpec,
    MemoryBitFlipFault,
    ParameterDriftFault,
)
from repro.obs import (
    TRACER,
    ProgressReporter,
    TelemetryReport,
    Tracer,
    disable_tracing,
    enable_tracing,
    tracing_enabled,
)
from repro.obs.cli import main as trace_main
from repro.obs.export import (
    counters_from_trace,
    to_trace_events,
    validate_trace_events,
    write_trace_json,
)
from repro.sim import SquareWave
from repro.sweep import (
    GridSpec,
    MonteCarloSpec,
    PlatformScenarioSpec,
    PlatformSweepRunner,
    SweepRunner,
)
from repro.vp import averaging_monitor_source, threshold_monitor_source

TIMESTEP = 50e-9
SHORT = 20e-6
WAVE = {"vin": SquareWave(period=8e-6)}


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    """Every test starts and ends with the process-wide tracer disabled."""
    disable_tracing()
    TRACER.reset()
    yield
    disable_tracing()
    TRACER.reset()


def platform_runner(**kwargs) -> PlatformSweepRunner:
    kwargs.setdefault("timestep", TIMESTEP)
    return PlatformSweepRunner(build_rc_filter, "out", WAVE, **kwargs)


def single_scenario_spec() -> PlatformScenarioSpec:
    return PlatformScenarioSpec(
        parameters=GridSpec(axes={}, base={"order": 1}),
        firmwares={"threshold": threshold_monitor_source(500)},
    )


def sixteen_scenario_spec() -> PlatformScenarioSpec:
    """2 resistances x 2 capacitances x 2 styles x 2 firmwares = 16."""
    return PlatformScenarioSpec(
        parameters=GridSpec(
            axes={"resistance": [4e3, 6e3], "capacitance": [20e-9, 30e-9]},
            base={"order": 1},
        ),
        styles=("python", "de"),
        firmwares={
            "threshold": threshold_monitor_source(500),
            "averaging": averaging_monitor_source(4),
        },
    )


class TestTracer:
    def test_disabled_by_default_and_inert(self):
        tracer = Tracer()
        assert not tracer.enabled
        tracer.add("x")
        tracer.complete("span", 0.0, 1.0)
        tracer.instant("point")
        with tracer.span("ctx"):
            pass
        assert tracer.events == [] and tracer.counters == {}

    def test_enable_disable_round_trip(self):
        assert not tracing_enabled()
        enable_tracing()
        assert tracing_enabled() and TRACER.enabled
        disable_tracing()
        assert not tracing_enabled()

    def test_records_spans_instants_and_counters(self):
        tracer = Tracer()
        tracer.enabled = True
        start = tracer.now()
        tracer.complete("work", start, 0.25, "cat", detail=3)
        tracer.instant("tick", "cat")
        tracer.add("n", 2.0)
        tracer.add("n")
        assert tracer.counters == {"n": 3.0}
        phases = [event[0] for event in tracer.events]
        assert phases == ["X", "i"]
        name, args = tracer.events[0][1], tracer.events[0][5]
        assert name == "work" and args == {"detail": 3}
        assert tracer.events[0][4] == 0.25  # duration seconds

    def test_end_measures_elapsed_time(self):
        tracer = Tracer()
        tracer.enabled = True
        start = tracer.now()
        tracer.end("span", start)
        duration = tracer.events[0][4]
        assert duration >= 0.0

    def test_mark_collect_returns_only_the_delta(self):
        tracer = Tracer()
        tracer.enabled = True
        tracer.add("runs", 5.0)
        tracer.instant("before")
        mark = tracer.mark()
        tracer.add("runs", 2.0)
        tracer.instant("after")
        payload = tracer.collect(mark)
        assert payload["counters"] == {"runs": 2.0}
        assert [event[1] for event in payload["events"]] == ["after"]
        assert isinstance(payload["pid"], int)

    def test_event_cap_counts_drops(self):
        tracer = Tracer(max_events=2)
        tracer.enabled = True
        for index in range(5):
            tracer.instant(f"e{index}")
        assert len(tracer.events) == 2 and tracer.dropped == 3
        assert tracer.collect()["dropped"] == 3
        tracer.reset()
        assert tracer.events == [] and tracer.dropped == 0


class TestTelemetryReport:
    def payload(self, pid: int = 1) -> dict:
        tracer = Tracer()
        tracer.enabled = True
        tracer.add("platform.runs", 2.0)
        tracer.complete("platform.run", tracer.now(), 0.01, "platform")
        payload = tracer.collect()
        payload["pid"] = pid
        return payload

    def test_merge_sums_counters_and_orders_events(self):
        report = TelemetryReport.merge(
            "test",
            [self.payload(1), self.payload(2), None],
            scenarios=5,
            executed=4,
            wall=1.0,
            workers=2,
        )
        assert report.counters == {"platform.runs": 4.0}
        assert report.loaded == 1
        assert len(report.events) == 2
        timestamps = [event["ts"] for event in report.events]
        assert timestamps == sorted(timestamps)
        assert report.throughput == 4.0

    def test_percentiles_and_utilization(self):
        report = TelemetryReport.merge(
            "test",
            [self.payload()],
            scenarios=4,
            executed=4,
            wall=2.0,
            workers=2,
            latencies=np.array([1.0, 1.0, 1.0, 1.0]),
        )
        stats = report.latency_percentiles()
        assert stats["p50"] == stats["max"] == 1.0
        assert report.worker_utilization == 1.0
        assert "worker_utilization" in report.summary()

    def test_markdown_report_names_the_engine_and_counters(self):
        report = TelemetryReport.merge(
            "platform-sweep", [self.payload()], scenarios=2, executed=2, wall=0.5,
            workers=1,
        )
        text = report.to_markdown()
        assert "platform-sweep" in text and "platform.runs" in text


class TestExport:
    def report(self) -> TelemetryReport:
        tracer = Tracer()
        tracer.enabled = True
        start = tracer.now()
        tracer.complete("platform.run", start, 0.01, "platform", style="python")
        tracer.instant("marker", "platform")
        tracer.add("platform.runs", 3.0)
        return TelemetryReport.merge(
            "unit", [tracer.collect()], scenarios=3, executed=3, wall=0.1, workers=1
        )

    def test_trace_events_validate_and_recover_counters(self):
        payload = to_trace_events(self.report())
        assert validate_trace_events(payload) == []
        assert counters_from_trace(payload) == {"platform.runs": 3.0}
        phases = {event["ph"] for event in payload["traceEvents"]}
        assert {"X", "i", "C", "M"} <= phases
        assert payload["metadata"]["repro"]["engine"] == "unit"

    def test_validation_flags_schema_violations(self):
        assert validate_trace_events({"traceEvents": [{"ph": "X", "name": "a"}]})
        assert validate_trace_events([{"ph": "?", "name": "a", "ts": 0, "pid": 1, "tid": 1}])
        assert validate_trace_events("nonsense")

    def test_written_file_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_trace_json(path, self.report())
        payload = json.loads(path.read_text())
        assert validate_trace_events(payload) == []

    def test_validation_edge_cases_name_the_offending_event(self):
        def problems(event) -> str:
            return "\n".join(validate_trace_events([event]))

        # unknown phase
        assert "invalid phase 'Z'" in problems(
            {"ph": "Z", "name": "a", "ts": 0, "pid": 1, "tid": 1}
        )
        # negative timestamp
        assert "'ts' must be a non-negative number" in problems(
            {"ph": "i", "name": "a", "ts": -1.0, "pid": 1, "tid": 1}
        )
        # missing timestamp
        assert "'ts' must be a non-negative number" in problems(
            {"ph": "i", "name": "a", "pid": 1, "tid": 1}
        )
        # non-dict event names its index
        report = validate_trace_events([{"ph": "i", "name": "a", "ts": 0}, "junk"])
        assert any("event[1]: not an object" in problem for problem in report)
        # non-integer pid/tid
        assert "'pid' must be an integer" in problems(
            {"ph": "i", "name": "a", "ts": 0, "pid": "one"}
        )
        # complete event without a duration
        assert "non-negative 'dur'" in problems(
            {"ph": "X", "name": "a", "ts": 0, "pid": 1, "tid": 1}
        )
        # counter without args
        assert "needs an 'args' object" in problems(
            {"ph": "C", "name": "a", "ts": 0, "pid": 1, "tid": 1}
        )

    def test_truncation_warning_in_markdown_and_html(self):
        from dataclasses import replace

        complete = self.report()
        assert "truncated" not in complete.to_markdown()
        text = replace(complete, dropped=41).to_markdown()
        assert "WARNING — telemetry truncated" in text
        assert "41 event(s)" in text
        assert "max_events" in text

    def test_report_round_trips_through_trace_export(self):
        from repro.obs.export import report_from_trace

        original = self.report()
        recovered = report_from_trace(to_trace_events(original))
        assert recovered.engine == original.engine
        assert recovered.executed == original.executed
        assert recovered.counters == original.counters
        assert len(recovered.events) == len(original.events)
        assert recovered.span_stats().keys() == original.span_stats().keys()
        # durations survive the µs round-trip to within rounding
        assert recovered.span_stats()["platform.run"]["total"] == pytest.approx(
            original.span_stats()["platform.run"]["total"], abs=1e-6
        )

    def test_report_round_trips_through_jsonl(self):
        from repro.obs.export import report_from_jsonl, to_jsonl

        original = self.report()
        recovered = report_from_jsonl(to_jsonl(original))
        assert recovered.engine == original.engine
        assert recovered.counters == original.counters
        assert recovered.span_stats() == original.span_stats()
        assert recovered.dropped == original.dropped


class TestZeroOverheadGuarantee:
    def test_cross_engine_matrix_unchanged_by_tracing(self):
        """Scalar and vectorized analog backends agree, traced or not."""
        spec = MonteCarloSpec(
            nominal={"order": 1, "resistance": 5e3, "capacitance": 25e-9},
            tolerances={"resistance": 0.05},
            samples=4,
            seed=7,
        )

        def outputs(backend: str, trace: bool) -> np.ndarray:
            runner = SweepRunner(
                build_rc_filter, "out", stimuli=WAVE, timestep=TIMESTEP,
                backend=backend, trace=trace,
            )
            return runner.run(spec, SHORT).ensemble("V(out)")

        plain = {backend: outputs(backend, False) for backend in ("python", "numpy")}
        traced = {backend: outputs(backend, True) for backend in ("python", "numpy")}
        for backend in ("python", "numpy"):
            # tracing is pure observation: bit-identical waveforms
            assert np.array_equal(plain[backend], traced[backend])
        np.testing.assert_allclose(
            plain["python"], plain["numpy"], rtol=1e-9, atol=1e-12
        )

    def test_sixteen_scenario_sweep_fingerprints_are_trace_invariant(self):
        spec = sixteen_scenario_spec()
        assert len(spec) == 16
        plain = platform_runner(trace=False).run(spec, SHORT)
        traced = platform_runner(trace=True).run(spec, SHORT)
        assert plain.fingerprints() == traced.fingerprints()
        assert plain.telemetry is None

    def test_global_tracer_untouched_by_untraced_runs(self):
        platform_runner().run(single_scenario_spec(), SHORT)
        assert TRACER.events == [] and TRACER.counters == {}


class TestCounterReconciliation:
    def test_platform_sweep_counters_match_results(self):
        spec = sixteen_scenario_spec()
        result = platform_runner(trace=True).run(spec, SHORT)
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.counters["platform.runs"] == result.executed_count == 16
        assert telemetry.counters["de.runs"] == 16.0
        total_instructions = sum(r.instructions for r in result.results)
        assert telemetry.counters["platform.instructions"] == total_instructions
        assert telemetry.executed == 16 and telemetry.scenarios == 16
        assert telemetry.latency_percentiles()["max"] > 0.0

    def test_analog_sweep_counters_match_results(self):
        spec = MonteCarloSpec(
            nominal={"order": 1, "resistance": 5e3, "capacitance": 25e-9},
            tolerances={"resistance": 0.05},
            samples=6,
            seed=3,
        )
        result = SweepRunner(
            build_rc_filter, "out", stimuli=WAVE, timestep=TIMESTEP, trace=True
        ).run(spec, SHORT)
        assert result.telemetry is not None
        assert result.telemetry.counters["sweep.scenarios"] == result.executed_count

    def test_multiprocess_fault_campaign_reconciles_exactly(self):
        """The acceptance criterion: merged worker telemetry == result counts."""
        spec = FaultCampaignSpec(
            faults=[
                ParameterDriftFault("r1", 1.0 + 1e-9),
                ParameterDriftFault("r1", 2.0),
                AdcStuckBitFault(bit=9, stuck_at=1),
                MemoryBitFlipFault(bit=0),
            ],
            activation_times=(SHORT / 2.0,),
            scenarios=PlatformScenarioSpec(
                styles=("python",),
                firmwares={"threshold": threshold_monitor_source(500)},
            ),
        )
        bench = rc_benchmark(1)
        runner = FaultCampaignRunner(
            bench.build, "out", WAVE, workers=2, trace=True, progress=False
        )
        result = runner.run(spec, SHORT)
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.engine == "fault-campaign"
        assert telemetry.counters["platform.runs"] == result.executed_count
        assert result.executed_count == result.n_runs == len(spec)
        # One kernel run per job plus one per golden-prefix segment: the two
        # digital faults share one activation time and one worker chunk.
        assert telemetry.counters["platform.checkpoints"] == 1
        assert (
            telemetry.counters["de.runs"]
            == result.n_runs + telemetry.counters["platform.checkpoints"]
        )
        # worker payloads arrived from more than one process
        assert len({event["pid"] for event in telemetry.events}) >= 1
        payload = to_trace_events(telemetry)
        assert validate_trace_events(payload) == []
        assert counters_from_trace(payload)["platform.runs"] == result.n_runs
        # the parent process tracer saw nothing: collection is worker-local
        assert TRACER.events == [] and TRACER.counters == {}


class TestProgressReporter:
    def test_renders_progress_and_final_newline(self):
        stream = io.StringIO()
        reporter = ProgressReporter(
            4, "units", enabled=True, stream=stream, min_interval=0.0
        )
        assert reporter.active
        reporter.advance(1)
        reporter.advance(3)
        reporter.finish()
        text = stream.getvalue()
        assert "units" in text and "4/4" in text and text.endswith("\n")

    def test_disabled_reporter_is_silent(self):
        stream = io.StringIO()
        reporter = ProgressReporter(4, "units", enabled=False, stream=stream)
        assert not reporter.active
        reporter.advance(4)
        reporter.finish()
        assert stream.getvalue() == ""

    def test_default_follows_stream_tty(self):
        reporter = ProgressReporter(1, "units", stream=io.StringIO())
        assert not reporter.active  # StringIO is not a terminal


class TestTraceCli:
    def exported(self, tmp_path):
        result = platform_runner(trace=True).run(single_scenario_spec(), SHORT)
        path = tmp_path / "trace.json"
        write_trace_json(path, result.telemetry)
        return path

    def test_round_trip_validates_and_reconciles(self, tmp_path, capsys):
        path = self.exported(tmp_path)
        jsonl = tmp_path / "events.jsonl"
        status = trace_main(
            [
                str(path),
                "--validate",
                "--expect-counter",
                "platform.runs=1",
                "--jsonl",
                str(jsonl),
            ]
        )
        captured = capsys.readouterr()
        assert status == 0
        assert "trace_event schema: OK" in captured.out
        assert "platform.runs = 1: OK" in captured.out
        lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert any(event.get("name") == "platform.run" for event in lines)

    def test_counter_mismatch_exits_one(self, tmp_path, capsys):
        path = self.exported(tmp_path)
        status = trace_main([str(path), "--quiet", "--expect-counter", "platform.runs=99"])
        assert status == 1
        assert "COUNTER MISMATCH" in capsys.readouterr().err

    def test_invalid_payload_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": [{"ph": "X", "name": "a"}]}))
        status = trace_main([str(path), "--quiet", "--validate"])
        assert status == 2
        assert "INVALID" in capsys.readouterr().err


class TestBenchmarkProvenance:
    def test_environment_meta_carries_git_identity(self):
        from repro.perf.baseline import BenchmarkRecord, git_identity

        meta = BenchmarkRecord.environment_meta()
        assert "git_commit" in meta and "git_dirty" in meta
        commit, dirty = git_identity()
        # This test runs from a git checkout, so the identity must resolve;
        # the cached lookup and the meta must agree.
        assert meta["git_commit"] == commit
        assert meta["git_dirty"] == dirty
        if commit is not None:
            assert len(commit) == 40 and isinstance(dirty, bool)
