"""Tests of the platform sweep layer (``repro.sweep.platform``).

The layer's guarantees: specs expand deterministically over all four axes
(analog point × style × firmware × stimulus), every scenario runs through a
real :class:`SmartSystemPlatform`, the software-visible outcome of a scenario
is independent of the integration style *and* of where it executed (serial
loop versus multiprocessing worker), and the aggregation renders
Table-III-style summaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import build_rc_filter
from repro.errors import PlatformError
from repro.sim import SquareWave
from repro.sweep import (
    GridSpec,
    PlatformScenarioSpec,
    PlatformSweepRunner,
    SweepError,
)
from repro.vp import (
    ANALOG_STYLES,
    SmartSystemPlatform,
    averaging_monitor_source,
    threshold_monitor_source,
)

TIMESTEP = 50e-9
SHORT = 20e-6  # 400 analog steps per platform: structure checks, not timing
WAVE = {"vin": SquareWave(period=8e-6)}

RC_GRID = GridSpec(axes={"resistance": [4e3, 6e3]}, base={"order": 1})


def runner(**kwargs) -> PlatformSweepRunner:
    kwargs.setdefault("timestep", TIMESTEP)
    return PlatformSweepRunner(build_rc_filter, "out", WAVE, **kwargs)


class TestPlatformScenarioSpec:
    def test_expansion_covers_all_axes_row_major(self):
        spec = PlatformScenarioSpec(
            parameters=RC_GRID,
            styles=("python", "de"),
            firmwares={"a": None, "b": None},
            stimuli=("default",),
        )
        scenarios = spec.expand()
        assert len(spec) == len(scenarios) == 2 * 2 * 2
        assert [s.index for s in scenarios] == list(range(8))
        # style is the innermost axis: adjacent scenarios share the analog key
        assert scenarios[0].style == "python" and scenarios[1].style == "de"
        assert scenarios[0].analog_key() == scenarios[1].analog_key()
        assert scenarios[0].analog_key() != scenarios[2].analog_key()
        # firmware varies before the analog point does
        assert [s.firmware for s in scenarios[:4]] == ["a", "a", "b", "b"]
        assert {s.params["resistance"] for s in scenarios} == {4e3, 6e3}

    def test_default_axes_are_singletons(self):
        spec = PlatformScenarioSpec()
        scenarios = spec.expand()
        assert len(scenarios) == 1
        only = scenarios[0]
        assert only.params == {} and only.style == "python"
        assert only.firmware == "default" and only.stimulus == "default"

    def test_per_scenario_seeds_are_deterministic(self):
        from repro.sweep import spawn_seeds

        spec = PlatformScenarioSpec(parameters=RC_GRID, styles=("python",), seed=100)
        seeds = [s.seed for s in spec.expand()]
        # Derived through the shared seeds helper (SeedSequence spawning),
        # and stable across expansions.
        assert seeds == spawn_seeds(100, 2)
        assert len(set(seeds)) == 2
        assert [s.seed for s in spec.expand()] == seeds
        assert [s.seed for s in PlatformScenarioSpec(
            parameters=RC_GRID, styles=("python",), seed=101
        ).expand()] != seeds

    def test_styles_of_one_analog_point_share_the_seed(self):
        """Regression: the seed is an *analog* property — if styles got
        different seeds, seed-aware stimulus families would break the
        cross-style equivalence guarantee."""
        spec = PlatformScenarioSpec(
            parameters=RC_GRID, styles=("python", "de", "tdf"), seed=7
        )
        from repro.sweep import spawn_seeds

        by_key: dict[tuple, set] = {}
        for scenario in spec.expand():
            by_key.setdefault(scenario.analog_key(), set()).add(scenario.seed)
        assert all(len(seeds) == 1 for seeds in by_key.values())
        assert sorted(seeds.pop() for seeds in by_key.values()) == sorted(
            spawn_seeds(7, 2)
        )

    def test_validation(self):
        with pytest.raises(SweepError):
            PlatformScenarioSpec(styles=())
        with pytest.raises(SweepError):
            PlatformScenarioSpec(styles=("fpga",))
        with pytest.raises(SweepError):
            PlatformScenarioSpec(styles=("python", "python"))
        with pytest.raises(SweepError):
            PlatformScenarioSpec(firmwares={})
        with pytest.raises(SweepError):
            PlatformScenarioSpec(stimuli=())

    def test_parameter_specs_with_their_own_stimuli_are_rejected(self):
        """Per-point stimulus mappings would bypass the family mechanism, so
        expansion refuses them instead of silently dropping them."""
        spec = PlatformScenarioSpec(
            parameters=GridSpec(
                axes={"resistance": [4e3]}, base={"order": 1}, stimuli=WAVE
            )
        )
        with pytest.raises(SweepError, match="stimulus families"):
            spec.expand()

    def test_describe_mentions_every_axis(self):
        scenario = PlatformScenarioSpec(parameters=RC_GRID).expand()[0]
        text = scenario.describe()
        assert "python" in text and "fw=default" in text and "resistance" in text


class TestPlatformSweepRunner:
    @pytest.fixture(scope="class")
    def result(self):
        spec = PlatformScenarioSpec(
            parameters=RC_GRID,
            styles=("python", "de", "tdf"),
            firmwares={
                "threshold": threshold_monitor_source(100),
                "averaging": averaging_monitor_source(),
            },
        )
        return runner().run(spec, SHORT)

    def test_shapes_and_metrics(self, result):
        assert result.n_scenarios == 2 * 3 * 2
        assert result.styles() == ["python", "de", "tdf"]
        assert result.elapsed.shape == (result.n_scenarios,)
        assert np.all(result.instructions() > 0)
        assert np.all(result.analog_samples() == 400)

    def test_styles_agree_on_software_behaviour(self, result):
        """The defining invariant: the integration style must not change what
        the software observes (same instructions, UART bytes, crossings)."""
        outcomes: dict[tuple, set] = {}
        for scenario, result_ in zip(result.scenarios, result.results):
            key = scenario.analog_key()
            fingerprint = result_.fingerprint()[:-1]  # drop the style tag
            outcomes.setdefault(key, set()).add(fingerprint)
        assert all(len(variants) == 1 for variants in outcomes.values()), outcomes

    def test_cross_style_nrmse_is_small(self, result):
        errors = result.scenario_nrmse()
        assert errors is not None
        assert not np.any(np.isnan(errors))
        assert np.all(errors < 1e-6)  # same abstracted model in every style

    def test_summary_and_reports(self, result):
        summary = result.summary_by_style()
        assert set(summary) == {"python", "de", "tdf"}
        assert result.baseline_style == "python"
        assert summary["python"]["speedup"] == pytest.approx(1.0)
        assert summary["de"]["scenarios"] == 4
        markdown = result.to_markdown()
        assert "Table III layout" in markdown and "| de |" in markdown
        csv = result.to_csv()
        assert len(csv.splitlines()) == 1 + result.n_scenarios

    def test_cosim_is_the_baseline_when_present(self):
        spec = PlatformScenarioSpec(
            parameters=GridSpec(axes={}, base={"order": 1}),
            styles=("cosim", "python"),
        )
        result = runner().run(spec, SHORT)
        assert result.baseline_style == "cosim"
        summary = result.summary_by_style()
        # Headline claim: the abstracted integration beats co-simulation.
        assert summary["python"]["speedup"] > 1.0

    def test_parallel_run_equals_serial_run(self):
        spec = PlatformScenarioSpec(parameters=RC_GRID, styles=("python", "de"))
        serial = runner(workers=1).run(spec, SHORT)
        parallel = runner(workers=2).run(spec, SHORT)
        assert serial.fingerprints() == parallel.fingerprints()
        assert parallel.workers == 2
        for a, b in zip(serial.results, parallel.results):
            assert a.analog_trace == b.analog_trace

    def test_per_tick_block_stepped_and_parallel_runs_agree(self):
        """Block stepping and worker fan-out change no scenario outcome:
        1x1 corner x 4 styles x 2 firmwares x 2 stimulus families, run
        per-tick (block 1), block-stepped (the default) and on 2 workers."""
        spec = PlatformScenarioSpec(
            parameters=GridSpec(
                axes={"resistance": [4e3], "capacitance": [20e-9]},
                base={"order": 1},
            ),
            styles=("python", "de", "tdf", "eln"),
            firmwares={
                "threshold": threshold_monitor_source(100),
                "averaging": averaging_monitor_source(),
            },
            stimuli=("fast", "slow"),
        )
        stimuli = {
            "fast": {"vin": SquareWave(period=40e-6)},
            "slow": {"vin": SquareWave(period=80e-6, duty=0.3)},
        }

        def fingerprints(**kwargs):
            return PlatformSweepRunner(
                build_rc_filter,
                "out",
                stimuli,
                timestep=TIMESTEP,
                record_analog=False,
                **kwargs,
            ).run(spec, SHORT).fingerprints()

        per_tick = fingerprints(cpu_block_cycles=1)
        assert len(per_tick) == 16
        assert fingerprints() == per_tick
        assert fingerprints(workers=2) == per_tick

    def test_seeded_stimulus_families_reach_the_workers(self):
        def jittered(seed: int):
            rng = np.random.default_rng(seed)
            period = 8e-6 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0))
            return {"vin": SquareWave(period=period)}

        spec = PlatformScenarioSpec(
            parameters=GridSpec(axes={}, base={"order": 1}),
            styles=("python",),
            stimuli=("jittered",),
            seed=5,
        )
        stimuli = {"jittered": jittered}
        first = PlatformSweepRunner(
            build_rc_filter, "out", stimuli, timestep=TIMESTEP, families=True
        ).run(spec, SHORT)
        again = PlatformSweepRunner(
            build_rc_filter, "out", stimuli, timestep=TIMESTEP, families=True
        ).run(spec, SHORT)
        assert first.fingerprints() == again.fingerprints()

    def test_unknown_stimulus_family_is_reported(self):
        spec = PlatformScenarioSpec(styles=("python",), stimuli=("nope",))
        with pytest.raises(SweepError, match="nope"):
            runner().run(spec, SHORT)

    def test_fractional_duration_rejected(self):
        spec = PlatformScenarioSpec(styles=("python",))
        with pytest.raises(SweepError):
            runner().run(spec, 2.5 * TIMESTEP)

    def test_zero_scenarios_rejected(self):
        with pytest.raises(SweepError):
            runner().run([], SHORT)

    def test_scenario_list_with_custom_firmware_needs_sources(self):
        """Regression: a filtered scenario list must not silently run custom
        firmware variants on the platform default firmware."""
        spec = PlatformScenarioSpec(
            parameters=RC_GRID,
            styles=("python",),
            firmwares={"avg": averaging_monitor_source()},
        )
        scenarios = spec.expand()[:1]
        with pytest.raises(SweepError, match="avg"):
            runner().run(scenarios, SHORT)
        # supplying the sources makes the list equivalent to the spec run
        from_list = runner().run(
            scenarios, SHORT, firmwares=spec.firmware_table()
        )
        from_spec = runner().run(spec, SHORT)
        assert from_list.fingerprints() == from_spec.fingerprints()[:1]

    def test_unknown_firmware_name_is_reported(self):
        spec = PlatformScenarioSpec(parameters=RC_GRID, styles=("python",))
        with pytest.raises(SweepError, match="unknown firmware"):
            runner().run(spec, SHORT, firmwares={"other": None})

    def test_validation_of_constructor_arguments(self):
        with pytest.raises(ValueError):
            runner(workers=0)
        with pytest.raises(ValueError):
            runner(timestep=0.0)
        with pytest.raises(SweepError):
            PlatformSweepRunner(build_rc_filter, "out", {})


class TestAttachAnalogDispatcher:
    def test_styles_constant_matches_dispatcher(self, rc1_model):
        for style in ANALOG_STYLES:
            platform = SmartSystemPlatform()
            if style in ("python", "de", "tdf"):
                platform.attach_analog(style, WAVE, model=rc1_model)
            else:
                platform.attach_analog(
                    style, WAVE, circuit=build_rc_filter(1), output="V(out)"
                )
            assert platform.analog_style is not None

    def test_missing_operands_are_rejected(self, rc1_model):
        with pytest.raises(PlatformError):
            SmartSystemPlatform().attach_analog("python", WAVE)
        with pytest.raises(PlatformError):
            SmartSystemPlatform().attach_analog("eln", WAVE, circuit=build_rc_filter(1))
        with pytest.raises(PlatformError):
            SmartSystemPlatform().attach_analog("fpga", WAVE, model=rc1_model)

    def test_recording_captures_the_adc_stream(self, rc1_model):
        platform = SmartSystemPlatform(record_analog=True)
        platform.attach_analog("python", WAVE, model=rc1_model)
        result = platform.run(SHORT)
        assert result.analog_trace is not None
        assert len(result.analog_trace) == result.analog_samples
        unrecorded = SmartSystemPlatform()
        unrecorded.attach_analog("python", WAVE, model=rc1_model)
        assert unrecorded.run(SHORT).analog_trace is None
