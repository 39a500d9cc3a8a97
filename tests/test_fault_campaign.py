"""Tests of the fault-campaign engine and detectability analysis.

The layer's guarantees: campaigns expand deterministically (golden runs
first), execute through the platform sweep fan-out with identical outcomes
serial or multiprocess, classify *every* fault into one of the verdicts,
compare against golden runs that are bit-identical to plain platform runs,
and render coverage/collapse reports.
"""

from __future__ import annotations

import csv
import io
import math
import struct

import numpy as np
import pytest

from repro.circuits import build_opamp, build_rc_filter, opamp_benchmark, rc_benchmark
from repro.core import abstract_circuit
from repro.errors import FaultError
from repro.fault import (
    VERDICT_CRASH,
    VERDICT_DETECTED,
    VERDICT_SILENT,
    VERDICT_TRACE,
    VERDICTS,
    AdcStuckBitFault,
    FaultCampaignResult,
    FaultCampaignRunner,
    FaultCampaignSpec,
    FaultScenario,
    InstructionCorruptionFault,
    MemoryBitFlipFault,
    ParameterDriftFault,
    ResistorShortFault,
    analog_fault_universe,
    classify_run,
    digital_fault_universe,
)
from repro.fault import report
from repro.sim import SquareWave
from repro.sweep import (
    GridSpec,
    PlatformScenarioSpec,
    PlatformSweepResult,
    PlatformSweepRunner,
    spawn_seeds,
)
from repro.vp import PlatformRunResult, SmartSystemPlatform, threshold_monitor_source

TIMESTEP = 50e-9
DURATION = 1.2e-4
ACTIVATION = 6e-5
WAVE = {"vin": SquareWave(period=4e-5)}

FIRMWARES = {"threshold": threshold_monitor_source(500)}


def find_poll_loop_address() -> int:
    """An instruction address inside the firmware's busy-poll loop."""
    model = abstract_circuit(build_rc_filter(1), "out", TIMESTEP)
    platform = SmartSystemPlatform(firmware=FIRMWARES["threshold"])
    platform.attach_analog_python(model, WAVE)
    platform.run(10e-6)
    return platform.cpu.pc & ~0x3


class TestFaultCampaignSpec:
    def universe(self):
        return [
            ParameterDriftFault("r1", 1.5),
            AdcStuckBitFault(bit=3),
            MemoryBitFlipFault(bit=0),
        ]

    def test_expansion_golden_first_then_fault_major(self):
        spec = FaultCampaignSpec(
            faults=self.universe(),
            activation_times=(1e-5, 2e-5),
            scenarios=PlatformScenarioSpec(styles=("python", "de")),
        )
        runs = spec.expand()
        assert len(runs) == len(spec) == 2 + 2 * (1 + 2 * 2)
        assert [run.index for run in runs] == list(range(len(runs)))
        assert all(run.golden for run in runs[:2])
        assert not any(run.golden for run in runs[2:])
        # the analog fault expands once per scenario, digital ones per time
        drift_runs = [run for run in runs if run.fault and run.fault.kind == "drift"]
        assert len(drift_runs) == 2
        stuck_runs = [
            run for run in runs if run.fault and run.fault.kind == "adc-stuck"
        ]
        assert sorted({run.at_time for run in stuck_runs}) == [1e-5, 2e-5]

    def test_seeds_come_from_the_shared_helper(self):
        spec = FaultCampaignSpec(faults=self.universe(), seed=42)
        runs = spec.expand()
        assert [run.fault_seed for run in runs] == spawn_seeds(42, len(runs))
        assert len({run.fault_seed for run in runs}) == len(runs)

    def test_validation(self):
        with pytest.raises(FaultError, match="at least one fault"):
            FaultCampaignSpec(faults=[])
        with pytest.raises(FaultError, match="duplicate fault"):
            FaultCampaignSpec(
                faults=[AdcStuckBitFault(bit=3), AdcStuckBitFault(bit=3)]
            )
        with pytest.raises(FaultError, match="non-negative"):
            FaultCampaignSpec(faults=self.universe(), activation_times=(-1.0,))
        with pytest.raises(FaultError, match="activation time"):
            FaultCampaignSpec(faults=self.universe(), activation_times=())

    def test_activation_beyond_duration_rejected(self):
        spec = FaultCampaignSpec(
            faults=[AdcStuckBitFault(bit=3)], activation_times=(1.0,)
        )
        runner = FaultCampaignRunner(rc_benchmark(1).build, "out", WAVE)
        with pytest.raises(FaultError, match="never strike"):
            runner.run(spec, DURATION)

    def test_nrmse_threshold_validated(self):
        with pytest.raises(FaultError):
            FaultCampaignRunner(
                rc_benchmark(1).build, "out", WAVE, nrmse_threshold=0.0
            )


class TestFaultCampaignIsAPlatformSweep:
    def test_runner_accepts_the_campaign_parameters_and_no_others(self, tmp_path):
        runner = FaultCampaignRunner(
            factory=rc_benchmark(1).build,
            output="out",
            stimuli=WAVE,
            timestep=2 * TIMESTEP,
            cpu_clock_hz=10e6,
            families=False,
            workers=2,
            cpu_block_cycles=64,
            nrmse_threshold=1e-2,
            store=tmp_path,
            resume=True,
            interrupt_after=5,
            trace=True,
            progress=False,
        )
        assert isinstance(runner, PlatformSweepRunner)
        engine = runner.engine
        assert (engine.output, engine.stimuli) == ("out", {"default": WAVE})
        assert (engine.timestep, engine.cpu_clock_hz) == (2 * TIMESTEP, 10e6)
        assert engine.cpu_block_cycles == 64
        # Always on for a campaign: the trace feeds the verdicts, and a
        # crash is an outcome.
        assert engine.record_analog and engine.capture_errors
        executor = runner.executor
        assert executor.store.directory == tmp_path
        assert (
            executor.workers,
            executor.resume,
            executor.interrupt_after,
            executor.trace,
            executor.progress,
        ) == (2, True, 5, True, False)
        assert runner.nrmse_threshold == 1e-2
        for option, value in (("record_analog", False), ("capture_errors", False)):
            with pytest.raises(TypeError, match=option):
                FaultCampaignRunner(rc_benchmark(1).build, "out", WAVE, **{option: value})

    def test_result_declares_only_the_verdict_bookkeeping(self):
        from dataclasses import fields

        inherited = {field.name for field in fields(PlatformSweepResult)}
        assert {field.name for field in fields(FaultCampaignResult)} - inherited == {
            "nrmse_threshold",
            "_verdicts",
        }
        sweep_bookkeeping = {
            "results",
            "elapsed",
            "duration",
            "timestep",
            "workers",
            "timings",
            "executed",
            "telemetry",
            "executed_count",
            "fingerprints",
        }
        assert not sweep_bookkeeping & set(vars(FaultCampaignResult))

    def test_runs_name_their_golden_run(self):
        spec = FaultCampaignSpec(
            faults=[ParameterDriftFault("r1", 1.5), AdcStuckBitFault(bit=3)],
            activation_times=(1e-5, 2e-5),
            scenarios=PlatformScenarioSpec(styles=("python", "de")),
        )
        platform = spec.platform_scenarios()
        runs = spec.expand()
        assert all(isinstance(run, FaultScenario) for run in runs)
        for run in runs:
            golden = runs[run.golden_index]
            assert golden.golden and golden.index == run.golden_index
            assert platform[run.golden_index].style == run.style
        drift = [run for run in runs if run.fault and run.fault.layer == "analog"]
        assert [run.params for run in drift] == [{"_fault": "drift:r1x1.5"}] * 2


class TestFaultCampaignExecution:
    @pytest.fixture(scope="class")
    def spec(self):
        return FaultCampaignSpec(
            faults=[
                ParameterDriftFault("r1", 1.0 + 1e-9),  # silent anchor
                ParameterDriftFault("r1", 2.0),  # analog divergence
                AdcStuckBitFault(bit=9, stuck_at=1),  # firmware must react
                InstructionCorruptionFault(find_poll_loop_address()),  # crash
                MemoryBitFlipFault(0x8000, 0),  # unused RAM: no effect
                MemoryBitFlipFault(0x8800, 1),  # unused RAM: same outcome
            ],
            activation_times=(ACTIVATION,),
            scenarios=PlatformScenarioSpec(firmwares=FIRMWARES),
            seed=3,
        )

    @pytest.fixture(scope="class")
    def result(self, spec):
        runner = FaultCampaignRunner(rc_benchmark(1).build, "out", WAVE)
        return runner.run(spec, DURATION)

    def test_every_fault_is_classified(self, spec, result):
        verdicts = result.verdicts()
        assert len(verdicts) == len(spec) - 1  # one golden run
        assert all(entry.verdict in VERDICTS for entry in verdicts)
        assert sum(result.counts().values()) == len(verdicts)

    def test_all_four_execution_verdict_classes_occur(self, result):
        by_name = {entry.run.fault.name: entry.verdict for entry in result.verdicts()}
        assert by_name["drift:r1x1.000000001"] == VERDICT_SILENT
        assert by_name["drift:r1x2.0"] == VERDICT_TRACE
        assert by_name["adc-stuck1:bit9"] == VERDICT_DETECTED
        assert by_name[f"code-corrupt:{find_poll_loop_address():#x}"] == VERDICT_CRASH
        assert set(by_name.values()) == set(VERDICTS)

    def test_golden_traces_are_converted_once_with_identical_verdicts(
        self, result, monkeypatch
    ):
        from repro.fault import classify_run
        from repro.fault import report

        golden = result.golden_results()
        expected = [
            classify_run(golden[entry.run.golden_index], entry.result, 1e-3)
            for entry in result.verdicts()
        ]
        converted = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def asarray(value, *args, **kwargs):
                converted.append(id(value))
                return np.asarray(value, *args, **kwargs)

        monkeypatch.setattr(report, "np", CountingNumpy())
        fresh = report.FaultCampaignResult(
            scenarios=result.scenarios,
            results=result.results,
            elapsed=result.elapsed,
            duration=result.duration,
            timestep=result.timestep,
        )
        assert [(e.verdict, e.nrmse, e.detail) for e in fresh.verdicts()] == expected
        golden_traces = {id(run.analog_trace) for run in golden.values()}
        assert sum(key in golden_traces for key in converted) == len(golden_traces)

    def test_crash_detail_names_the_cpu_fault(self, result):
        crash = [e for e in result.verdicts() if e.verdict == VERDICT_CRASH]
        assert len(crash) == 1
        assert "CpuFault" in crash[0].detail
        assert crash[0].result.crashed is not None

    def test_golden_run_matches_plain_platform_run(self, result):
        """Acceptance: the zero-fault campaign run is fingerprint-identical
        to a hand-built SmartSystemPlatform simulation."""
        model = abstract_circuit(build_rc_filter(1), "out", TIMESTEP)
        platform = SmartSystemPlatform(
            firmware=FIRMWARES["threshold"], record_analog=True
        )
        platform.attach_analog_python(model, WAVE)
        plain = platform.run(DURATION)
        golden = result.golden_results()[0]
        assert golden.fingerprint() == plain.fingerprint()
        assert golden.analog_trace == plain.analog_trace

    def test_parallel_equals_serial(self, spec, result):
        parallel = FaultCampaignRunner(
            rc_benchmark(1).build, "out", WAVE, workers=2
        ).run(spec, DURATION)
        assert parallel.fingerprints() == result.fingerprints()
        assert [e.verdict for e in parallel.verdicts()] == [
            e.verdict for e in result.verdicts()
        ]

    def test_collapse_groups_indistinguishable_faults(self, result):
        groups = result.collapse()
        assert sum(len(group) for group in groups) == len(result.verdicts())
        largest = groups[0]
        members = {entry.run.fault.name for entry in largest}
        # the two upsets in unused RAM are observationally equivalent
        assert {"mem-flip:0x8000.0", "mem-flip:0x8800.1"} <= members
        assert all(entry.verdict == VERDICT_SILENT for entry in largest)

    def test_reports_render(self, result):
        markdown = result.to_markdown()
        assert "## Verdicts" in markdown
        assert "## Coverage by fault kind" in markdown
        assert "adc-stuck1:bit9" in markdown
        assert f"{100.0 * result.detected_fraction():.1f} %" in markdown
        table = result.to_csv()
        assert len(table.splitlines()) == 1 + len(result.verdicts())
        assert table.splitlines()[0].startswith("#,fault,kind,layer")
        # free-text columns (scenario label, detail) are quoted so grid
        # labels like "r=1k,c=25n" cannot shift the columns
        first_row = next(csv.reader(io.StringIO(table.splitlines()[1])))
        assert first_row[5] == result.verdicts()[0].run.label
        header = table.splitlines()[0].split(",")
        assert header[5] == "scenario" and header[-1] == "detail"

    def test_cli_sentinel_adapts_to_the_circuit(self):
        """The CLI's guaranteed-silent drift targets a real branch of the
        chosen benchmark instead of assuming RC naming."""
        from repro.circuits import build_two_input
        from repro.fault.cli import silent_sentinel

        assert silent_sentinel(build_rc_filter(1)).branch == "r1"
        assert silent_sentinel(build_opamp()).branch == "rb1"
        assert silent_sentinel(build_two_input()).branch is not None

    def test_misapplied_analog_fault_is_captured_as_crash(self):
        """A fault that cannot be applied to the netlist (short on a
        capacitor) is a crash outcome for that run, not a campaign abort."""
        spec = FaultCampaignSpec(
            faults=[ResistorShortFault("c1")],
            scenarios=PlatformScenarioSpec(firmwares=FIRMWARES),
        )
        result = FaultCampaignRunner(rc_benchmark(1).build, "out", WAVE).run(
            spec, 2e-5
        )
        (entry,) = result.verdicts()
        assert entry.verdict == VERDICT_CRASH
        assert "FaultError" in entry.detail


class TestAcceptanceCampaign:
    """The 64+-fault acceptance campaign over the RC/OA platform scenarios."""

    @pytest.fixture(scope="class")
    def campaign(self):
        faults = [
            ParameterDriftFault("rb2", 1.0 + 1e-9),
            *analog_fault_universe(build_opamp()),
            *digital_fault_universe(
                adc_bits=tuple(range(12)),
                register_indices=(8, 9, 10, 11, 16, 17, 23, 24),
                memory_bits=(0, 1, 2, 3),
                uart_masks=(0x20, 0x01),
            ),
        ]
        spec = FaultCampaignSpec(
            faults=faults,
            activation_times=(1e-5,),
            scenarios=PlatformScenarioSpec(firmwares=FIRMWARES),
            seed=11,
        )
        runner = FaultCampaignRunner(opamp_benchmark().build, "out", WAVE)
        return spec, runner

    def test_campaign_is_large_enough(self, campaign):
        spec, _ = campaign
        assert len(spec.faults) >= 64

    @pytest.fixture(scope="class")
    def serial_result(self, campaign):
        spec, runner = campaign
        return runner.run(spec, 2e-5)

    def test_every_fault_classified_and_counted(self, campaign, serial_result):
        spec, _ = campaign
        assert len(serial_result.verdicts()) == len(spec.faults)
        counts = serial_result.counts()
        assert sum(counts.values()) == len(spec.faults)
        assert counts[VERDICT_SILENT] >= 1
        assert sum(counts[v] for v in VERDICTS if v != VERDICT_SILENT) >= 1
        assert 0.0 <= serial_result.detected_fraction() <= 1.0

    def test_multiprocessing_path_matches_serial(self, campaign, serial_result):
        spec, _ = campaign
        parallel = FaultCampaignRunner(
            opamp_benchmark().build, "out", WAVE, workers=3
        ).run(spec, 2e-5)
        assert parallel.workers > 1
        assert parallel.fingerprints() == serial_result.fingerprints()

    def test_coverage_report_emits(self, serial_result):
        matrix = serial_result.coverage_matrix()
        assert set(matrix) >= {"drift", "open", "short", "adc-stuck"}
        for row in matrix.values():
            assert set(row) == set(VERDICTS)
        markdown = serial_result.to_markdown()
        assert "faulted runs" in markdown
        csv = serial_result.to_csv()
        assert len(csv.splitlines()) == 1 + len(serial_result.verdicts())


class TestEqualStreamShortcut:
    """A faulted ADC stream equal to its all-finite golden stream skips numpy.

    Every verdict and every NRMSE bit must equal what :func:`classify_run`,
    which always computes the NRMSE, gives for the run.
    """

    SAMPLES = 200

    def campaign(self, seed: int, non_finite: float) -> FaultCampaignResult:
        """Two platform scenarios; the second one's golden stream holds
        ``non_finite``.  Per scenario: digital faults whose streams equal
        golden, analog faults whose streams differ, a crash cut short."""
        rng = np.random.default_rng(seed)
        scenarios = PlatformScenarioSpec(stimuli=("a", "b")).expand()
        streams = [rng.normal(size=self.SAMPLES).tolist() for _ in scenarios]
        streams[1][int(rng.integers(self.SAMPLES))] = non_finite
        runs: list[FaultScenario] = []
        results: list[PlatformRunResult] = []

        def add(fault, scenario, stream, uart="", crashed=None):
            runs.append(
                FaultScenario(
                    **{**vars(scenario), "index": len(runs)},
                    fault=fault,
                    fault_seed=len(runs),
                    golden_index=scenario.index,
                )
            )
            results.append(
                PlatformRunResult(
                    simulated_time=1e-5,
                    instructions=100,
                    bus_transactions=len(stream),
                    uart_output=uart,
                    analog_samples=len(stream),
                    crossings_reported=0,
                    analog_style="python",
                    analog_trace=stream,
                    crashed=crashed,
                )
            )

        for scenario, stream in zip(scenarios, streams):
            add(None, scenario, stream)
        for scenario, stream in zip(scenarios, streams):
            # Equal streams: the golden float objects, equal new floats, and
            # one whose firmware reacted anyway.
            add(MemoryBitFlipFault(bit=0), scenario, list(stream))
            add(MemoryBitFlipFault(bit=1), scenario, np.array(stream).tolist())
            add(MemoryBitFlipFault(bit=2), scenario, list(stream), uart="!")
            noise = rng.normal(scale=0.1, size=self.SAMPLES)
            add(ParameterDriftFault("r1", 2.0), scenario, (np.array(stream) + noise).tolist())
            add(ParameterDriftFault("c1", 1.5), scenario, (np.array(stream) * 1.5).tolist())
            cut = int(rng.integers(1, self.SAMPLES))
            add(
                InstructionCorruptionFault(0x40),
                scenario,
                stream[:cut],
                crashed="CpuFault: staged",
            )
        return FaultCampaignResult(
            scenarios=runs,
            results=results,
            elapsed=np.zeros(len(runs)),
            duration=1e-5,
            timestep=TIMESTEP,
        )

    @staticmethod
    def bits(rows) -> list[tuple]:
        return [
            (verdict, None if error is None else struct.pack("<d", error), detail)
            for verdict, error, detail in rows
        ]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("non_finite", [math.inf, -math.inf, math.nan])
    def test_verdicts_and_nrmse_bits_equal_the_numpy_reference(
        self, seed, non_finite, monkeypatch
    ):
        result = self.campaign(seed, non_finite)
        golden = result.golden_results()
        expected = [
            classify_run(golden[run.golden_index], outcome, result.nrmse_threshold)
            for run, outcome in zip(result.scenarios, result.results)
            if not run.golden
        ]
        computed = []
        numpy_nrmse = report.trace_nrmse
        monkeypatch.setattr(
            report,
            "trace_nrmse",
            lambda reference, faulted: computed.append(faulted)
            or numpy_nrmse(reference, faulted),
        )
        rows = [(e.verdict, e.nrmse, e.detail) for e in result.verdicts()]
        assert self.bits(rows) == self.bits(expected)
        # Only the finite scenario's three equal streams skipped numpy.
        assert len(computed) == len(expected) - 3
        assert {entry.verdict for entry in result.verdicts()} == {
            VERDICT_SILENT,
            VERDICT_DETECTED,
            VERDICT_TRACE,
            VERDICT_CRASH,
        }
