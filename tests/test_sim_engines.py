"""Tests for the analog engines: ELN, reference AMS, co-simulation, runners."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.circuits import build_rc_filter, paper_benchmarks, rc_filter_source
from repro.core import AbstractionFlow, abstract_circuit
from repro.core.codegen import NativeGenerator, NumpyGenerator, toolchain_error
from repro.errors import SimulationError
from repro.metrics import compare_traces, nrmse
from repro.sim import (
    AnalogCosimServer,
    CoSimulationBridge,
    DeSourceModule,
    ElnModel,
    Kernel,
    ReferenceAmsSimulator,
    Signal,
    SineWave,
    SquareWave,
    StepSource,
    TdfCluster,
    TdfProbeModule,
    TdfSourceModule,
    Trace,
    TraceSet,
    resolve_steps,
    run_de_model,
    run_eln_model,
    run_python_model,
    run_reference_model,
    run_tdf_model,
)

DT = 50e-9
TAU = 5e3 * 25e-9


class TestSources:
    def test_square_wave_levels_and_duty(self):
        wave = SquareWave(amplitude=2.0, period=1e-3, duty=0.25, offset=1.0)
        assert wave(0.1e-3) == 3.0
        assert wave(0.5e-3) == 1.0
        assert wave(1.1e-3) == 3.0

    def test_square_wave_validation(self):
        with pytest.raises(ValueError):
            SquareWave(period=0.0)
        with pytest.raises(ValueError):
            SquareWave(duty=1.5)

    def test_sine_and_step(self):
        sine = SineWave(amplitude=2.0, frequency=1e3)
        assert sine(0.25e-3) == pytest.approx(2.0)
        step = StepSource(initial=0.0, final=5.0, step_time=1.0)
        assert step(0.5) == 0.0
        assert step(1.5) == 5.0

    def test_piecewise_linear(self):
        from repro.sim import PiecewiseLinear

        ramp = PiecewiseLinear([(0.0, 0.0), (1.0, 10.0)])
        assert ramp(0.5) == pytest.approx(5.0)
        assert ramp(-1.0) == 0.0
        assert ramp(2.0) == 10.0


class TestTrace:
    def test_append_and_arrays(self):
        trace = Trace("x")
        trace.append(1.0, 10.0)
        trace.append(2.0, 20.0)
        assert len(trace) == 2
        assert trace.final_value() == 20.0
        assert np.allclose(trace.resample(np.array([1.5])), [15.0])

    def test_trace_set(self):
        traces = TraceSet()
        traces.add("a").append(0.0, 1.0)
        assert "a" in traces
        assert traces.names() == ["a"]
        assert traces.waveform("a")[0] == 1.0

    def test_nrmse_metric(self):
        reference = np.array([0.0, 1.0, 2.0, 3.0])
        assert nrmse(reference, reference) == 0.0
        shifted = reference + 0.3
        assert nrmse(reference, shifted) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            nrmse(reference, reference[:2])


class TestElnModel:
    def test_rc_charge_matches_analytic(self, rc1_circuit):
        model = ElnModel(rc1_circuit, DT)
        duration = 3 * TAU
        traces = model.run({"vin": lambda t: 1.0}, duration, ["V(out)"])
        expected = 1.0 - math.exp(-duration / TAU)
        assert traces["V(out)"].final_value() == pytest.approx(expected, rel=1e-3)

    def test_set_input_and_value(self, rc1_circuit):
        model = ElnModel(rc1_circuit, DT)
        model.set_input("vin", 1.0)
        model.step()
        assert model.value("V(vin)") == pytest.approx(1.0, rel=1e-6)
        assert model.node_voltage("gnd") == 0.0
        with pytest.raises(SimulationError):
            model.set_input("nope", 1.0)

    def test_reset(self, rc1_circuit):
        model = ElnModel(rc1_circuit, DT)
        model.run({"vin": lambda t: 1.0}, 100 * DT, ["V(out)"])
        model.reset()
        assert model.time == 0.0
        assert model.value("V(out)") == 0.0


class TestReferenceSimulator:
    def test_built_from_vams_source(self):
        simulator = ReferenceAmsSimulator(rc_filter_source(1), DT)
        assert simulator.inputs == ["vin"]
        assert "V(out)" in simulator.quantities()

    def test_accuracy_close_to_analytic(self, rc1_circuit):
        simulator = ReferenceAmsSimulator(rc1_circuit, DT, oversampling=2)
        duration = 2 * TAU
        traces = simulator.run({"vin": lambda t: 1.0}, duration, ["V(out)"])
        expected = 1.0 - math.exp(-duration / TAU)
        assert traces["V(out)"].final_value() == pytest.approx(expected, rel=5e-4)

    def test_solver_effort_accounting(self, rc1_circuit):
        simulator = ReferenceAmsSimulator(
            rc1_circuit, DT, oversampling=3, solver_iterations=2
        )
        simulator.step({"vin": 1.0})
        assert simulator.step_count == 1
        assert simulator.solve_count == 6

    def test_parameter_validation(self, rc1_circuit):
        with pytest.raises(ValueError):
            ReferenceAmsSimulator(rc1_circuit, DT, oversampling=0)
        with pytest.raises(ValueError):
            ReferenceAmsSimulator(rc1_circuit, DT, solver_iterations=0)


#: The four fixed-timestep engines that must agree to numerical precision:
#: they all advance the *same* abstracted signal-flow recursion, so any
#: disagreement beyond time-quantisation noise is an integration-layer bug.
#: The compiled-C engine joins the matrix wherever cffi and a C compiler
#: exist (the CI native-smoke job guarantees at least one such environment).
NATIVE_AVAILABLE = toolchain_error() is None
MATRIX_ENGINES = ("python", "numpy-batch", "de", "tdf") + (
    ("native",) if NATIVE_AVAILABLE else ()
)
MATRIX_DURATION = 100e-6
#: Pairwise agreement bound.  Smooth (sine) stimuli make the comparison
#: independent of where a square-wave edge lands on the femtosecond event
#: grid, so the engines agree to ~1e-15 in practice; 1e-9 leaves margin for
#: slower accumulation on longer runs without masking real defects.
MATRIX_AGREEMENT = 1e-9


def _matrix_stimuli(model) -> dict:
    """Smooth multi-tone stimuli: one sine per input, distinct frequencies."""
    return {
        name: SineWave(amplitude=1.0, frequency=10e3 * (index + 1))
        for index, name in enumerate(model.inputs)
    }


def _run_numpy_batch(model, stimuli, duration) -> TraceSet:
    """Run a batch-of-one through the vectorized backend, as a TraceSet."""
    return _run_batch(NumpyGenerator().generate_batch([model]), stimuli, duration)


def _run_native_batch(model, stimuli, duration) -> TraceSet:
    """Run a batch-of-one through the compiled-C backend, as a TraceSet."""
    return _run_batch(NativeGenerator().generate_batch([model]), stimuli, duration)


def _run_batch(artifact, stimuli, duration) -> TraceSet:
    instance = artifact.instantiate()
    waveforms = [stimuli[name] for name in instance.INPUTS]
    steps = resolve_steps(duration, float(instance.TIMESTEP))
    traces = TraceSet({name: Trace(name) for name in instance.OUTPUTS})
    single = len(instance.OUTPUTS) == 1
    for index in range(steps):
        now = (index + 1) * float(instance.TIMESTEP)
        result = instance.step_batch(*[w(now) for w in waveforms], now)
        values = (result,) if single else tuple(result)
        for name, value in zip(instance.OUTPUTS, values):
            traces[name].append(now, float(np.ravel(value)[0]))
    return traces


class TestCrossEngineMatrix:
    """Every benchmark circuit × every fixed-timestep engine, pairwise.

    This is the repo's equivalence contract: the generated scalar model
    (``python``), the vectorized batch backend (``numpy-batch``), the
    discrete-event integration (``de``) and the TDF cluster (``tdf``) must
    produce the same output waveform for each of the paper's four benchmark
    circuits, to within :data:`MATRIX_AGREEMENT`.
    """

    @pytest.fixture(scope="class")
    def engine_traces(self):
        """(benchmark name, engine) → output trace, computed once per class."""
        traces: dict[tuple[str, str], Trace] = {}
        for bench in paper_benchmarks():
            model = AbstractionFlow(DT).abstract(
                bench.circuit(), bench.output, name=bench.name.lower()
            ).model
            stimuli = _matrix_stimuli(model)
            output = bench.output_quantity
            runs = {
                "python": run_python_model(model, stimuli, MATRIX_DURATION),
                "numpy-batch": _run_numpy_batch(model, stimuli, MATRIX_DURATION),
                "de": run_de_model(model, stimuli, MATRIX_DURATION),
                "tdf": run_tdf_model(model, stimuli, MATRIX_DURATION),
            }
            if NATIVE_AVAILABLE:
                runs["native"] = _run_native_batch(model, stimuli, MATRIX_DURATION)
            for engine, run in runs.items():
                traces[(bench.name, engine)] = run[output]
        return traces

    @pytest.mark.parametrize(
        "component", [bench.name for bench in paper_benchmarks()]
    )
    @pytest.mark.parametrize(
        "pair",
        list(itertools.combinations(MATRIX_ENGINES, 2)),
        ids=lambda pair: f"{pair[0]}-vs-{pair[1]}",
    )
    def test_pairwise_agreement(self, engine_traces, component, pair):
        first, second = pair
        error = compare_traces(
            engine_traces[(component, first)], engine_traces[(component, second)]
        )
        assert error <= MATRIX_AGREEMENT, (
            f"{component}: {first} and {second} disagree (NRMSE {error:.3e})"
        )

    @pytest.mark.parametrize(
        "component", [bench.name for bench in paper_benchmarks()]
    )
    def test_trace_lengths_match(self, engine_traces, component):
        lengths = {
            engine: len(engine_traces[(component, engine)])
            for engine in MATRIX_ENGINES
        }
        assert len(set(lengths.values())) == 1, lengths


class TestGoldenBaselineAnchor:
    """The matrix checks the engines against each other; these anchor the
    abstracted recursion (and the ELN solver) to the reference AMS engine."""

    @pytest.fixture(scope="class")
    def setup(self):
        circuit = build_rc_filter(1)
        model = abstract_circuit(circuit, "out", DT)
        stimuli = {"vin": SquareWave(period=40e-6)}
        duration = 100e-6
        reference = run_reference_model(circuit, stimuli, duration, DT, ["V(out)"])
        return circuit, model, stimuli, duration, reference

    def test_python_runner_accuracy(self, setup):
        circuit, model, stimuli, duration, reference = setup
        traces = run_python_model(model, stimuli, duration)
        assert compare_traces(reference["V(out)"], traces["V(out)"]) < 1e-3

    def test_eln_runner_accuracy(self, setup):
        circuit, model, stimuli, duration, reference = setup
        eln_traces = run_eln_model(circuit, stimuli, duration, DT, ["V(out)"])
        assert compare_traces(reference["V(out)"], eln_traces["V(out)"]) < 1e-3


class TestStepResolution:
    """Fixed-step runners must reject non-multiple durations, not round them."""

    def test_exact_multiples_resolve(self):
        assert resolve_steps(100e-6, DT) == 2000
        # durations built as n * dt carry float error a few ulps wide
        assert resolve_steps(1999 * DT, DT) == 1999

    def test_fractional_duration_raises(self):
        with pytest.raises(SimulationError, match="integer multiple"):
            resolve_steps(2.5 * DT, DT)

    def test_long_runs_still_catch_fractional_steps(self):
        """Regression: the tolerance must not scale up to where a half-step
        drop passes on paper-size runs (2e6-2e8 steps)."""
        for steps in (2_000_000, 200_000_000):
            assert resolve_steps(steps * DT, DT) == steps
            with pytest.raises(SimulationError, match="integer multiple"):
                resolve_steps((steps + 0.4) * DT, DT)

    def test_sub_timestep_duration_raises(self):
        with pytest.raises(SimulationError, match="shorter than one timestep"):
            resolve_steps(DT / 100.0, DT)
        with pytest.raises(SimulationError):
            resolve_steps(0.0, DT)

    def test_invalid_timestep_raises(self):
        with pytest.raises(SimulationError):
            resolve_steps(1e-6, 0.0)

    def test_run_python_model_rejects_fractional_duration(self, rc1_model):
        """Regression: ``int(round(duration / dt))`` used to silently simulate
        2 steps for duration = 2.5 * dt, dropping simulated time."""
        stimuli = {"vin": SquareWave(period=40e-6)}
        with pytest.raises(SimulationError, match="integer multiple"):
            run_python_model(rc1_model, stimuli, 2.5 * DT)
        # the exact multiple still runs and yields exactly n samples
        traces = run_python_model(rc1_model, stimuli, 100 * DT)
        assert len(traces["V(out)"]) == 100

    def test_signal_flow_model_run_rejects_fractional_duration(self, rc1_model):
        """Regression: ``SignalFlowModel.run`` rounded ``duration / timestep``
        and recorded 2 samples for 2.5 steps and 4 for 3.5."""
        stimuli = {"vin": SquareWave(period=40e-6)}
        for steps in (2.5, 3.5):
            with pytest.raises(SimulationError, match="integer multiple"):
                rc1_model.run(stimuli, steps * DT)
        assert len(rc1_model.run(stimuli, 3 * DT).waveform("V(out)")) == 3

    @pytest.mark.parametrize("engine", [ElnModel, ReferenceAmsSimulator])
    def test_conservative_engine_run_rejects_fractional_duration(self, rc1_circuit, engine):
        """Regression: ``ElnModel.run``, which the reference engine inherits,
        rounded ``duration / timestep`` and recorded 2 samples for 2.5 steps."""
        model = engine(rc1_circuit, DT)
        stimuli = {"vin": SquareWave(period=40e-6)}
        with pytest.raises(SimulationError, match="integer multiple"):
            model.run(stimuli, 2.5 * DT, ["V(out)"])
        assert model.step_count == 0
        assert len(model.run(stimuli, 3 * DT, ["V(out)"])["V(out)"]) == 3

    def test_tdf_cluster_run_rejects_fractional_duration(self):
        """Regression: ``TdfCluster.run`` rounded ``duration / timestep`` and
        ran 3 periods for 2.5."""
        cluster = TdfCluster()
        source = cluster.add(TdfSourceModule("src", SquareWave(period=40e-6), 1e-6))
        probe = cluster.add(TdfProbeModule("probe"))
        cluster.connect(source.out, probe.inp)
        with pytest.raises(SimulationError, match="integer multiple"):
            cluster.run(2.5e-6)
        assert len(probe.trace) == 0
        assert cluster.run(3e-6) == pytest.approx(3e-6)
        assert len(probe.trace) == 3

    def test_every_runner_validates_the_duration(self, rc1_model, rc1_circuit):
        """All fixed-step runner entry points agree on rejecting fractional
        durations (they are compared as equivalent by the engine matrix)."""
        stimuli = {"vin": SquareWave(period=40e-6)}
        fractional = 2.5 * DT
        with pytest.raises(SimulationError):
            run_de_model(rc1_model, stimuli, fractional)
        with pytest.raises(SimulationError):
            run_tdf_model(rc1_model, stimuli, fractional)
        with pytest.raises(SimulationError):
            run_eln_model(rc1_circuit, stimuli, fractional, DT, ["V(out)"])
        with pytest.raises(SimulationError):
            run_reference_model(rc1_circuit, stimuli, fractional, DT, ["V(out)"])


class TestCoSimulation:
    def test_server_marshalling_roundtrip(self, rc1_circuit):
        simulator = ReferenceAmsSimulator(rc1_circuit, DT)
        server = AnalogCosimServer(simulator, ["V(out)"])
        request = server.pack_request({"vin": 1.0})
        response = server.transact(request)
        observed = server.unpack_response(response)
        assert set(observed) == {"V(out)"}
        assert server.transaction_count == 1

    def test_bridge_matches_direct_reference_run(self, rc1_circuit):
        duration = 50e-6
        stimulus = SquareWave(period=20e-6)
        direct = run_reference_model(
            build_rc_filter(1), {"vin": stimulus}, duration, DT, ["V(out)"]
        )

        kernel = Kernel()
        simulator = ReferenceAmsSimulator(rc1_circuit, DT)
        server = AnalogCosimServer(simulator, ["V(out)"])
        source = DeSourceModule(kernel, "src", stimulus, DT)
        output_signal = Signal(kernel, 0.0, "out")
        CoSimulationBridge(
            kernel,
            "bridge",
            server,
            {"vin": source.out},
            {"V(out)": output_signal},
            DT,
        )
        kernel.run(duration)
        # After the run the analog engine has advanced through the same steps.
        assert simulator.step_count == direct["V(out)"].values.size
        # Edge samples may land one step apart between the two runs, so allow
        # the corresponding small waveform deviation.
        assert output_signal.read() == pytest.approx(
            direct["V(out)"].final_value(), rel=1e-2
        )
