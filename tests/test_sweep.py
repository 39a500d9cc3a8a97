"""Tests of the batch-simulation subsystem (``repro.sweep``).

Covers the four guarantees the subsystem makes: declarative specs expand
deterministically, the vectorized NumPy backend is numerically equivalent to
the scalar generated-code path on every benchmark circuit, compiled classes
are reused through the source-digest cache, and multiprocess chunking changes
nothing about the results.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

from repro.circuits import build_rc_filter, build_two_input, paper_benchmarks
from repro.core import AbstractionFlow
from repro.core.codegen import (
    NumpyGenerator,
    cache_info,
    clear_cache,
    structure_signature,
)
from repro.core.codegen.numpy_backend import PARAM_PREFIX
from repro.errors import CodeGenerationError
from repro.sim import SquareWave, run_python_model
from repro.sweep import (
    CompositeSpec,
    CornerSpec,
    GridSpec,
    MonteCarloSpec,
    SweepError,
    SweepRunner,
)

SRC = Path(__file__).resolve().parents[1] / "src"
TIMESTEP = 50e-9
SHORT = 50e-6  # 1000 analog steps: enough to exercise the state recursion
WAVE = {"vin": SquareWave(period=1e-3)}

RC_NOMINAL = {"order": 1, "resistance": 5e3, "capacitance": 25e-9}


def rc_runner(**kwargs) -> SweepRunner:
    return SweepRunner(
        build_rc_filter, "out", stimuli=WAVE, timestep=TIMESTEP, **kwargs
    )


def mc_spec(samples: int = 8, seed: int = 7) -> MonteCarloSpec:
    return MonteCarloSpec(
        nominal=RC_NOMINAL,
        tolerances={"resistance": 0.05, "capacitance": 0.05},
        samples=samples,
        seed=seed,
    )


class TestSpecExpansion:
    def test_grid_is_the_cartesian_product(self):
        spec = GridSpec(
            axes={"resistance": [4e3, 5e3, 6e3], "capacitance": [20e-9, 25e-9]},
            base={"order": 1},
        )
        scenarios = spec.expand()
        assert len(scenarios) == 6
        assert [s.index for s in scenarios] == list(range(6))
        assert all(s.params["order"] == 1 for s in scenarios)
        # row-major: the last axis varies fastest
        assert [s.params["capacitance"] for s in scenarios[:2]] == [20e-9, 25e-9]
        assert scenarios[0].params["resistance"] == 4e3

    def test_empty_grid_yields_the_base_point(self):
        scenarios = GridSpec(axes={}, base={"order": 2}).expand()
        assert len(scenarios) == 1
        assert scenarios[0].params == {"order": 2}

    def test_corners_enumerate_every_extreme(self):
        spec = CornerSpec(
            nominal=RC_NOMINAL,
            corners={"resistance": (4.5e3, 5.5e3), "capacitance": (20e-9, 30e-9)},
        )
        scenarios = spec.expand()
        assert len(scenarios) == 5  # nominal + 2**2 corners
        assert scenarios[0].label == "nominal"
        resistances = {s.params["resistance"] for s in scenarios[1:]}
        assert resistances == {4.5e3, 5.5e3}
        without_nominal = CornerSpec(
            nominal=RC_NOMINAL,
            corners={"resistance": (4.5e3, 5.5e3)},
            include_nominal=False,
        ).expand()
        assert [s.params["resistance"] for s in without_nominal] == [4.5e3, 5.5e3]

    def test_monte_carlo_is_deterministic_per_seed(self):
        first = mc_spec(samples=16, seed=3).expand()
        second = mc_spec(samples=16, seed=3).expand()
        assert [s.params for s in first] == [s.params for s in second]
        other_seed = mc_spec(samples=16, seed=4).expand()
        assert [s.params for s in first] != [s.params for s in other_seed]

    def test_monte_carlo_respects_the_tolerance_band(self):
        scenarios = mc_spec(samples=64).expand()
        resistances = np.array([s.params["resistance"] for s in scenarios])
        assert np.all(resistances >= 5e3 * 0.95)
        assert np.all(resistances <= 5e3 * 1.05)
        assert resistances.std() > 0.0

    def test_monte_carlo_validates_its_arguments(self):
        with pytest.raises(ValueError):
            mc_spec(samples=0)
        with pytest.raises(ValueError):
            MonteCarloSpec(nominal={}, tolerances={"r": -0.1})
        with pytest.raises(ValueError):
            MonteCarloSpec(nominal={}, tolerances={}, distribution="cauchy")
        with pytest.raises(ValueError):
            MonteCarloSpec(nominal={}, tolerances={"r": 0.1})  # no nominal value

    def test_specs_compose_with_addition(self):
        grid = GridSpec(axes={"resistance": [4e3, 5e3]}, base={"order": 1})
        combined = grid + mc_spec(samples=3)
        assert isinstance(combined, CompositeSpec)
        scenarios = combined.expand()
        assert len(scenarios) == 5
        assert [s.index for s in scenarios] == list(range(5))
        assert {s.origin for s in scenarios} == {"grid", "monte-carlo"}
        triple = combined + GridSpec(axes={"order": [2]})
        assert len(triple.expand()) == 6

    def test_composite_len_is_the_sum_of_the_parts(self):
        """Invariant: len(a + b) == len(a) + len(b), however deeply nested."""
        parts = [
            GridSpec(axes={"resistance": [4e3, 5e3, 6e3]}, base={"order": 1}),
            CornerSpec(
                nominal=RC_NOMINAL,
                corners={"resistance": (4.5e3, 5.5e3)},
            ),
            mc_spec(samples=7),
        ]
        composite = parts[0] + parts[1] + parts[2]
        assert len(composite) == sum(len(part) for part in parts)
        assert len(composite) == len(composite.expand())

    def test_composite_preserves_order_labels_and_params(self):
        grid = GridSpec(axes={"resistance": [4e3, 5e3]}, base={"order": 1})
        monte_carlo = mc_spec(samples=3)
        combined = grid + monte_carlo
        scenarios = combined.expand()
        flat = grid.expand() + monte_carlo.expand()
        assert [s.label for s in scenarios] == [s.label for s in flat]
        assert [s.params for s in scenarios] == [s.params for s in flat]
        # only the indices are rewritten, contiguously
        assert [s.index for s in scenarios] == list(range(len(flat)))

    def test_composite_expansion_is_repeatable(self):
        combined = GridSpec(axes={"order": [1, 2]}) + mc_spec(samples=4)
        first = [(s.index, s.label, tuple(s.params.items())) for s in combined.expand()]
        second = [(s.index, s.label, tuple(s.params.items())) for s in combined.expand()]
        assert first == second

    def test_composite_keeps_per_spec_stimuli(self):
        quiet = {"vin": SquareWave(amplitude=0.5, period=1e-3)}
        loud = GridSpec(axes={"resistance": [4e3]}, base={"order": 1})
        soft = GridSpec(
            axes={"resistance": [5e3]}, base={"order": 1}, stimuli=quiet
        )
        scenarios = (loud + soft).expand()
        assert scenarios[0].stimuli is None  # runner default applies
        assert scenarios[1].stimuli is quiet

    def test_adding_a_non_spec_is_rejected(self):
        grid = GridSpec(axes={"order": [1]})
        with pytest.raises(TypeError):
            grid + 3
        with pytest.raises(TypeError):
            (grid + grid) + "corners"


class TestBatchEquivalence:
    @pytest.mark.parametrize(
        "bench", paper_benchmarks(), ids=lambda bench: bench.name
    )
    def test_step_batch_matches_run_python_model(self, bench):
        """The vectorized backend must reproduce the scalar path on every
        benchmark circuit to 1e-12 (the acceptance bound)."""
        flow = AbstractionFlow(TIMESTEP)
        model = flow.abstract(
            bench.circuit(), bench.output, name=bench.name.lower()
        ).model
        scalar = run_python_model(model, bench.stimuli, SHORT)

        artifact = NumpyGenerator().generate_batch([model, model, model])
        instance = artifact.instantiate()
        waveforms = [bench.stimuli[name] for name in instance.INPUTS]
        steps = int(round(SHORT / TIMESTEP))
        recorded = np.zeros((3, steps))
        for index in range(steps):
            now = (index + 1) * TIMESTEP
            recorded[:, index] = instance.step_batch(
                *[waveform(now) for waveform in waveforms], now
            )
        reference = scalar.waveform(bench.output_quantity)
        for lane in range(3):
            assert np.max(np.abs(recorded[lane] - reference)) <= 1e-12

    def test_lifted_coefficients_differ_per_lane(self):
        flow = AbstractionFlow(TIMESTEP)
        models = [
            flow.abstract(
                build_rc_filter(1, resistance=r), "out", name="rc1"
            ).model
            for r in (4e3, 5e3, 6e3)
        ]
        artifact = NumpyGenerator().generate_batch(models)
        assert artifact.parameters.shape[1] == 3
        assert artifact.code.metadata["backend"] == "numpy"
        assert PARAM_PREFIX not in artifact.code.source  # slots are renamed
        instance = artifact.instantiate()
        steps = int(round(SHORT / TIMESTEP))
        recorded = np.zeros((3, steps))
        for index in range(steps):
            now = (index + 1) * TIMESTEP
            recorded[:, index] = instance.step_batch(WAVE["vin"](now), now)
        for lane, model in enumerate(models):
            reference = run_python_model(model, WAVE, SHORT).waveform("V(out)")
            assert np.max(np.abs(recorded[lane] - reference)) <= 1e-12

    def test_variadic_min_max_fold_into_binary_numpy_calls(self):
        """np.minimum's third positional argument is ``out=``; a 3-argument
        min() must fold into nested binary calls, never corrupt an operand."""
        from repro.core.codegen import compile_model
        from repro.core.signalflow import Assignment, SignalFlowModel
        from repro.expr.ast import Call, Constant, Variable

        def clamp(low: float, high: float) -> SignalFlowModel:
            return SignalFlowModel(
                name="clamp",
                inputs=["u"],
                outputs=["y"],
                assignments=[
                    Assignment(
                        "y",
                        Call("min", [Variable("u"), Constant(low), Constant(high)]),
                    )
                ],
                timestep=1e-6,
            )

        models = [clamp(0.5, 0.8), clamp(0.4, 0.9)]
        artifact = NumpyGenerator().generate_batch(models)
        assert "np.minimum(u, np.minimum(" in artifact.code.source
        batch = artifact.instantiate().step_batch(np.array([0.7, 0.7]), 0.0)
        scalar = [compile_model(model)().step(0.7, 0.0) for model in models]
        assert batch.tolist() == scalar

    def test_structurally_different_models_are_rejected(self):
        flow = AbstractionFlow(TIMESTEP)
        rc1 = flow.abstract(build_rc_filter(1), "out", name="rc").model
        rc2 = flow.abstract(build_rc_filter(2), "out", name="rc").model
        assert structure_signature(rc1) != structure_signature(rc2)
        with pytest.raises(CodeGenerationError):
            NumpyGenerator().generate_batch([rc1, rc2])

    def test_runner_backends_agree(self):
        spec = mc_spec(samples=6)
        vectorized = rc_runner(backend="numpy").run(spec, SHORT)
        scalar = rc_runner(backend="python").run(spec, SHORT)
        assert vectorized.structure_groups == 1
        assert scalar.structure_groups == 1  # same structures, whatever the backend
        difference = np.abs(
            vectorized.ensemble("V(out)") - scalar.ensemble("V(out)")
        )
        assert np.max(difference) <= 1e-12


class TestRandomizedBackendParity:
    """Seeded random parameterizations: the vectorized ``step_batch`` must
    track the scalar generated ``step`` to 1e-12 over a long recursion, for
    parameter values far from the paper's nominal point."""

    STEPS = 1000
    TRIALS = 4
    LANES = 5

    def _assert_parity(self, models, stimuli_for):
        artifact = NumpyGenerator().generate_batch(models)
        batch = artifact.instantiate()
        scalar_traces = []
        for model in models:
            traces = run_python_model(
                model, stimuli_for(model), self.STEPS * TIMESTEP
            )
            scalar_traces.append(traces.waveform(model.outputs[0]))
        waveforms = [stimuli_for(models[0])[name] for name in batch.INPUTS]
        recorded = np.zeros((len(models), self.STEPS))
        for index in range(self.STEPS):
            now = (index + 1) * TIMESTEP
            recorded[:, index] = batch.step_batch(
                *[waveform(now) for waveform in waveforms], now
            )
        for lane, reference in enumerate(scalar_traces):
            deviation = np.max(np.abs(recorded[lane] - reference))
            assert deviation <= 1e-12, (
                f"lane {lane} ({models[lane].name}) deviates by {deviation:.3e}"
            )

    def test_random_rc_parameterizations(self):
        rng = np.random.default_rng(2016)
        flow = AbstractionFlow(TIMESTEP)
        for trial in range(self.TRIALS):
            models = []
            for lane in range(self.LANES):
                resistance = float(rng.uniform(5e2, 5e4))
                capacitance = float(rng.uniform(1e-9, 1e-7))
                circuit = build_rc_filter(
                    1, resistance=resistance, capacitance=capacitance
                )
                models.append(
                    flow.abstract(circuit, "out", name=f"rc_t{trial}").model
                )
            self._assert_parity(models, lambda model: WAVE)

    def test_random_two_input_parameterizations(self):
        rng = np.random.default_rng(77)
        flow = AbstractionFlow(TIMESTEP)
        stimuli = {
            "in1": SquareWave(period=1e-3),
            "in2": SquareWave(amplitude=0.5, period=0.7e-3, duty=0.3),
        }
        for trial in range(self.TRIALS):
            models = []
            for lane in range(self.LANES):
                params = {
                    "r1": float(rng.uniform(1e3, 20e3)),
                    "r2": float(rng.uniform(1e3, 20e3)),
                    "r3": float(rng.uniform(1e3, 20e3)),
                    "gain": float(rng.uniform(1e4, 1e6)),
                }
                circuit = build_two_input(**params)
                models.append(
                    flow.abstract(circuit, "out", name=f"two_t{trial}").model
                )
            self._assert_parity(models, lambda model: stimuli)

    def test_same_seed_reproduces_the_same_parameterizations(self):
        def draw(seed: int) -> list[float]:
            rng = np.random.default_rng(seed)
            return [float(rng.uniform(5e2, 5e4)) for _ in range(8)]

        assert draw(2016) == draw(2016)
        assert draw(2016) != draw(2017)


class TestCompileCache:
    def test_sweep_reruns_hit_the_cache(self):
        clear_cache()
        runner = rc_runner()
        spec = mc_spec(samples=4)
        runner.run(spec, SHORT)
        after_first = cache_info()
        assert after_first["misses"] >= 1
        runner.run(spec, SHORT)
        after_second = cache_info()
        assert after_second["misses"] == after_first["misses"]
        assert after_second["hits"] > after_first["hits"]

    def test_scalar_runner_reuses_compiled_classes(self):
        clear_cache()
        flow = AbstractionFlow(TIMESTEP)
        model = flow.abstract(build_rc_filter(1), "out", name="rc1").model
        run_python_model(model, WAVE, SHORT)
        assert cache_info()["misses"] == 1
        run_python_model(model, WAVE, SHORT)
        info = cache_info()
        assert info["misses"] == 1 and info["hits"] == 1


class TestMultiprocess:
    def test_parallel_run_equals_serial_run(self):
        spec = mc_spec(samples=8)
        serial = rc_runner(workers=1).run(spec, SHORT)
        parallel = rc_runner(workers=2).run(spec, SHORT)
        assert np.array_equal(
            serial.ensemble("V(out)"), parallel.ensemble("V(out)")
        )
        assert serial.times.shape == parallel.times.shape
        # chunking must not inflate the structure count
        assert parallel.structure_groups == serial.structure_groups == 1

    def test_worker_errors_surface_instead_of_falling_back(self):
        import warnings

        bad = GridSpec(axes={"resistence": [4e3, 5e3]}, base={"order": 1})  # typo
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TypeError):
                rc_runner(workers=2).run(bad, SHORT)
        assert not caught  # a real error is not a serial-fallback condition

    def test_worker_count_is_capped_by_scenarios(self):
        result = rc_runner(workers=8).run(mc_spec(samples=2), SHORT)
        assert result.n_scenarios == 2

    def test_a_dead_worker_fails_the_run_instead_of_hanging_it(self):
        """A chunk worker that exits without returning its result must fail
        the fan-out with a ``SweepError`` naming the dead worker process; a
        pool that waits for the lost result blocks the caller for good."""
        script = dedent(
            """\
            import os
            from repro.sweep.executor import map_scenario_chunks

            def worker(payload):
                _, chunk = payload
                if 3 in chunk:
                    os._exit(7)
                return list(chunk)

            map_scenario_chunks(worker, None, list(range(6)), 2)
            """
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert completed.returncode != 0
        assert "SweepError: a sweep worker process died" in completed.stderr


class TestResults:
    @pytest.fixture(scope="class")
    def result(self):
        return rc_runner().run(mc_spec(samples=5), SHORT)

    def test_shapes_and_accessors(self, result):
        assert result.n_scenarios == 5
        assert result.ensemble("V(out)").shape == (5, result.n_steps)
        assert result.waveform("V(out)", 2).shape == (result.n_steps,)
        assert result.final_values("V(out)").shape == (5,)
        traces = result.trace_set(0)
        assert "V(out)" in traces
        assert np.allclose(traces.waveform("V(out)"), result.waveform("V(out)", 0))

    def test_envelope_orders_min_mean_max(self, result):
        band = result.envelope("V(out)")
        assert np.all(band["min"] <= band["mean"] + 1e-15)
        assert np.all(band["mean"] <= band["max"] + 1e-15)

    def test_summary_and_reports(self, result):
        stats = result.summary()["V(out)"]
        assert stats["min"] <= stats["mean"] <= stats["max"]
        markdown = result.to_markdown()
        assert "Sweep report" in markdown and "mc#0" in markdown
        csv = result.to_csv()
        assert len(csv.splitlines()) == 6  # header + 5 scenarios

    def test_reference_nrmse_is_small(self):
        result = rc_runner().run(mc_spec(samples=2), SHORT, reference=True)
        assert result.nrmse is not None
        errors = result.nrmse["V(out)"]
        assert errors.shape == (2,)
        assert np.all(errors < 5e-2)


class TestRunnerValidation:
    def test_missing_stimulus_is_reported(self):
        runner = SweepRunner(
            build_rc_filter, "out", stimuli={}, timestep=TIMESTEP
        )
        with pytest.raises(SweepError):
            runner.run(mc_spec(samples=1), SHORT)

    def test_zero_scenarios_rejected(self):
        with pytest.raises(SweepError):
            rc_runner().run([], SHORT)

    def test_bad_backend_rejected(self):
        with pytest.raises(SweepError):
            rc_runner(backend="fortran")

    def test_bad_duration_rejected(self):
        with pytest.raises(SweepError):
            rc_runner().run(mc_spec(samples=1), TIMESTEP / 100.0)
