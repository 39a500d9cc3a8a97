"""Tests for the compiled-C (cffi) codegen backend and its degradation paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import build_opamp, build_rc_filter, paper_benchmarks
from repro.core import AbstractionFlow, abstract_circuit
from repro.core.codegen import (
    NativeGenerator,
    NumpyGenerator,
    compile_native,
    get_generator,
    native_batch_model,
    resolve_backend,
    toolchain_error,
)
from repro.core.codegen import native_backend
from repro.errors import CodegenError, CodeGenerationError
from repro.sweep import SweepError, SweepRunner
from repro.sweep.spec import Scenario

DT = 50e-9

TOOLCHAIN_MISSING = toolchain_error() is not None
needs_toolchain = pytest.mark.skipif(
    TOOLCHAIN_MISSING, reason=f"native toolchain unavailable: {toolchain_error()}"
)


@pytest.fixture(scope="module")
def rc_model():
    return abstract_circuit(build_rc_filter(2), "out", DT)


class TestSourceEmission:
    """Source generation never needs the toolchain."""

    def test_c_source_structure(self, rc_model):
        code = NativeGenerator().generate(rc_model)
        assert code.language == "C"
        assert "#include <math.h>" in code.source
        assert native_backend.NATIVE_SYMBOL in code.source
        assert code.metadata["backend"] == "native"

    def test_batch_artifact_matches_numpy_lifting(self, rc_model):
        models = [rc_model] * 4
        artifact = NativeGenerator().generate_batch(models)
        reference = NumpyGenerator().generate_batch(models)
        np.testing.assert_array_equal(artifact.parameters, reference.parameters)
        np.testing.assert_array_equal(
            artifact.initial_state, reference.initial_state
        )

    def test_compile_rejects_non_c_artifacts(self, rc_model):
        code = NumpyGenerator().generate(rc_model)
        with pytest.raises(CodeGenerationError):
            compile_native(code)


class TestGracefulDegradation:
    """Missing cffi / C compiler must fail loudly, naming the dependency."""

    def test_get_generator_raises_naming_the_dependency(self, monkeypatch):
        monkeypatch.setattr(
            native_backend,
            "_TOOLCHAIN_ERROR",
            "the 'cffi' package is not installed",
        )
        with pytest.raises(CodegenError, match="cffi"):
            get_generator("native")

    def test_instantiate_without_toolchain_raises(self, rc_model, monkeypatch):
        artifact = NativeGenerator().generate_batch([rc_model])
        monkeypatch.setattr(
            native_backend, "_TOOLCHAIN_ERROR", "no C compiler found on PATH"
        )
        with pytest.raises(CodegenError, match="C compiler"):
            artifact.instantiate()

    def test_resolve_backend_passthrough(self):
        assert resolve_backend("numpy") == "numpy"
        assert resolve_backend("python") == "python"

    def test_resolve_backend_warns_once_and_falls_back(self, monkeypatch):
        monkeypatch.setattr(
            native_backend,
            "_TOOLCHAIN_ERROR",
            "the 'cffi' package is not installed",
        )
        monkeypatch.setattr(native_backend, "_WARNED_FALLBACK", False)
        with pytest.warns(RuntimeWarning, match="cffi"):
            assert resolve_backend("native") == "numpy"
        # The second downgrade stays silent (one warning per process).
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("native") == "numpy"

    def test_sweep_runner_names_the_missing_dependency(self, monkeypatch):
        monkeypatch.setattr(
            native_backend,
            "_TOOLCHAIN_ERROR",
            "the 'cffi' package is not installed",
        )
        with pytest.raises(SweepError, match="cffi"):
            SweepRunner(
                build_rc_filter,
                "out",
                {"vin": lambda t: 1.0},
                DT,
                backend="native",
            )


@needs_toolchain
class TestCompiledExecution:
    def test_resolve_backend_keeps_native(self):
        assert resolve_backend("native") == "native"

    def test_get_generator_returns_native(self):
        assert isinstance(get_generator("native"), NativeGenerator)

    def test_scalar_step_matches_python_backend(self):
        model = abstract_circuit(build_opamp(), "out", DT)
        from repro.core.codegen import compile_model

        interpreter = compile_model(model)()
        instance = native_batch_model([model])
        for index in range(400):
            now = (index + 1) * DT
            drive = 0.5 if (index // 100) % 2 == 0 else -0.5
            expected = interpreter.step(drive, now)
            assert instance.step(drive, now) == pytest.approx(
                expected, rel=1e-12, abs=1e-15
            )

    @pytest.mark.parametrize(
        "bench", paper_benchmarks(), ids=lambda bench: bench.name
    )
    def test_batch_matches_numpy_bitwise_adjacent(self, bench):
        """Native vs NumPy on every paper benchmark, 64 scenarios, 1000 steps."""
        model = AbstractionFlow(DT).abstract(
            bench.circuit(), bench.output, name=bench.name.lower()
        ).model
        models = [model] * 64
        native = NativeGenerator().generate_batch(models).instantiate()
        reference = NumpyGenerator().generate_batch(models).instantiate()
        drive = np.linspace(-1.0, 1.0, 64)
        worst = 0.0
        for index in range(1000):
            now = (index + 1) * DT
            ours = native.step_batch(*([drive] * len(native.INPUTS)), now)
            theirs = reference.step_batch(*([drive] * len(reference.INPUTS)), now)
            if len(native.OUTPUTS) == 1:
                ours, theirs = (ours,), (theirs,)
            for mine, ref in zip(ours, theirs):
                finite = np.isfinite(ref)
                assert np.all(np.isfinite(mine) == finite)
                if np.any(finite):
                    worst = max(
                        worst, float(np.max(np.abs(mine[finite] - ref[finite])))
                    )
        assert worst <= 1e-9, worst

    def test_reassigned_variable_matches_the_interpreter(self, reassigned_model):
        from repro.sim import SineWave

        model = reassigned_model
        stimulus = SineWave(amplitude=1.0, frequency=10e3)
        times = np.arange(1, 201) * model.timestep
        interpreted = model.run({"vin": stimulus}, 200 * model.timestep).waveform("V(out)")
        instance = native_batch_model([model])
        native = [float(instance.step_batch(stimulus(t), t)[0]) for t in times]
        assert np.any(interpreted != 0.0)
        np.testing.assert_allclose(native, interpreted, rtol=1e-12, atol=1e-15)

    def test_reset_restores_initial_state(self, rc_model):
        instance = native_batch_model([rc_model] * 3)
        first = instance.step_batch(np.ones(3), DT)
        for _ in range(50):
            instance.step_batch(np.ones(3), DT)
        instance.reset()
        again = instance.step_batch(np.ones(3), DT)
        np.testing.assert_array_equal(first, again)

    def test_compile_cache_reuses_the_class(self, rc_model):
        artifact = NativeGenerator().generate_batch([rc_model])
        first = native_backend.compile_native(artifact.code)
        second = native_backend.compile_native(artifact.code)
        assert first is second

    def test_sweep_native_matches_numpy(self):
        from repro.sim import SquareWave

        stimuli = {"vin": SquareWave(period=20e-6)}
        scenarios = [
            Scenario(0, "a", {"stages": 1}),
            Scenario(1, "b", {"stages": 1}),
        ]

        def factory(stages=1):
            return build_rc_filter(int(stages))

        results = {}
        for backend in ("numpy", "native"):
            runner = SweepRunner(factory, "out", stimuli, DT, backend=backend)
            results[backend] = runner.run(scenarios, duration=50e-6)
        np.testing.assert_allclose(
            results["native"].outputs["V(out)"],
            results["numpy"].outputs["V(out)"],
            rtol=0.0,
            atol=1e-12,
        )

    def test_sweep_native_serial_equals_parallel(self):
        import warnings

        from repro.sim import SquareWave

        stimuli = {"vin": SquareWave(period=20e-6)}
        scenarios = [
            Scenario(
                index, f"s{index}", {"order": 1, "resistance": 4e3 + 500 * index}
            )
            for index in range(4)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a silent serial fallback fails
            serial = SweepRunner(
                build_rc_filter, "out", stimuli, DT, backend="native", workers=1
            ).run(scenarios, duration=50e-6)
            parallel = SweepRunner(
                build_rc_filter, "out", stimuli, DT, backend="native", workers=2
            ).run(scenarios, duration=50e-6)
        np.testing.assert_array_equal(
            serial.outputs["V(out)"], parallel.outputs["V(out)"]
        )

    def test_zoo_oracle_native_engine_agrees(self):
        from repro.zoo.oracle import OracleConfig, check_source

        source = """
module rc1(vin, out);
  inout vin, out;
  electrical vin, out;
  parameter real R = 1k;
  parameter real C = 100n;
  analog begin
    I(vin, out) <+ V(vin, out) / R;
    I(out) <+ C * ddt(V(out));
  end
endmodule
"""
        config = OracleConfig(engines=("python", "numpy", "native"))
        verdict = check_source(source, config)
        assert verdict.ok, verdict.summary()
