"""Tests for signal-flow models and the direct Verilog-AMS conversion path."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuits import paper_benchmarks
from repro.core import AbstractionFlow, SignalFlowModel, convert_signal_flow
from repro.core.codegen import NumpyGenerator, compile_model
from repro.core.signalflow import Assignment
from repro.errors import AbstractionError
from repro.expr import BinaryOp, Conditional, Constant, Previous, Variable
from repro.sim import SineWave
from repro.vams import parse_module

DT = 1e-6

def integrator_model() -> SignalFlowModel:
    """y accumulates u: y = prev(y) + dt * u."""
    assignment = Assignment(
        "y", BinaryOp("+", Previous("y"), BinaryOp("*", Constant(DT), Variable("u")))
    )
    return SignalFlowModel(
        name="integrator",
        inputs=["u"],
        outputs=["y"],
        assignments=[assignment],
        state_variables=["y"],
        timestep=DT,
    )


class TestSignalFlowModel:
    def test_step_updates_state(self):
        model = integrator_model()
        state = model.create_state()
        env = model.step({"u": 2.0}, state)
        assert env["y"] == pytest.approx(2.0 * DT)
        assert state["y"] == pytest.approx(2.0 * DT)
        model.step({"u": 2.0}, state)
        assert state["y"] == pytest.approx(4.0 * DT)

    def test_initial_state(self):
        model = integrator_model()
        model.initial_state = {"y": 1.0}
        state = model.create_state()
        assert state["y"] == 1.0

    def test_run_produces_trace(self):
        model = integrator_model()
        trace = model.run({"u": lambda t: 1.0}, 100 * DT)
        assert len(trace.times) == 100
        assert trace.waveform("y")[-1] == pytest.approx(100 * DT)

    def test_validate_detects_unknown_reference(self):
        model = SignalFlowModel(
            name="broken",
            inputs=[],
            outputs=["y"],
            assignments=[Assignment("y", Variable("ghost"))],
            timestep=DT,
        )
        with pytest.raises(AbstractionError, match="ghost"):
            model.validate()

    def test_validate_detects_uncomputed_state(self):
        model = SignalFlowModel(
            name="broken",
            inputs=["u"],
            outputs=["y"],
            assignments=[Assignment("y", Previous("z"))],
            state_variables=["z"],
            timestep=DT,
        )
        with pytest.raises(AbstractionError, match="never computed"):
            model.validate()

    def test_validate_detects_missing_output(self):
        model = SignalFlowModel(
            name="broken",
            inputs=["u"],
            outputs=["missing"],
            assignments=[Assignment("y", Variable("u"))],
            timestep=DT,
        )
        with pytest.raises(AbstractionError, match="missing"):
            model.validate()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_validate_rejects_a_nonfinite_constant(self, value):
        model = integrator_model()
        model.assignments.append(
            Assignment("z", BinaryOp("*", Constant(value), Variable("u")))
        )
        with pytest.raises(AbstractionError, match="'z' contains the non-finite"):
            model.validate()

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_validate_rejects_a_nonfinite_initial_state(self, value):
        model = integrator_model()
        model.initial_state = {"y": value}
        with pytest.raises(AbstractionError, match="initial state of 'y'"):
            model.validate()

    @pytest.mark.parametrize("timestep", [0.0, -DT, math.nan, math.inf])
    def test_validate_rejects_an_unusable_timestep(self, timestep):
        model = integrator_model()
        model.timestep = timestep
        with pytest.raises(AbstractionError, match="timestep"):
            model.validate()

    def test_abstracted_benchmark_models_validate(self):
        for benchmark in paper_benchmarks():
            model = AbstractionFlow(DT).abstract(
                benchmark.circuit(), [benchmark.output], name=benchmark.name
            ).model
            model.validate()

    def test_output_values_helper(self):
        model = integrator_model()
        env = model.step({"u": 1.0}, model.create_state())
        assert model.output_values(env) == {"y": pytest.approx(DT)}


class TestDirectConversion:
    def test_gain_stage(self):
        module = parse_module(
            "module gain(a, b); input a; output b; electrical a, b;"
            " analog V(b) <+ 2.5 * V(a); endmodule"
        )
        model = convert_signal_flow(module, DT)
        assert model.inputs == ["a"]
        assert model.outputs == ["V(b)"]
        env = model.step({"a": 2.0}, model.create_state())
        assert env["V(b)"] == pytest.approx(5.0)

    def test_statement_order_is_preserved(self):
        module = parse_module(
            """
            module chain(a, b); input a; output b; electrical a, b; real x, y;
            analog begin
              x = 2 * V(a);
              y = x + 1;
              V(b) <+ y * 3;
            end
            endmodule
            """
        )
        model = convert_signal_flow(module, DT)
        assert [a.target for a in model.assignments] == ["x", "y", "V(b)"]
        env = model.step({"a": 1.0}, model.create_state())
        assert env["V(b)"] == pytest.approx(9.0)

    def test_parameters_are_substituted(self):
        module = parse_module(
            "module g(a, b); input a; output b; electrical a, b; parameter real K = 4;"
            " analog V(b) <+ K * V(a); endmodule"
        )
        model = convert_signal_flow(module, DT)
        env = model.step({"a": 1.5}, model.create_state())
        assert env["V(b)"] == pytest.approx(6.0)

    def test_ddt_creates_state(self):
        module = parse_module(
            "module d(a, b); input a; output b; electrical a, b;"
            " analog V(b) <+ 1u * ddt(V(a)); endmodule"
        )
        model = convert_signal_flow(module, DT)
        assert model.state_variables == ["a"]
        state = model.create_state()
        model.step({"a": 0.0}, state)
        env = model.step({"a": 1.0}, state)
        assert env["V(b)"] == pytest.approx(1e-6 * 1.0 / DT)

    def test_idt_accumulates(self):
        module = parse_module(
            "module i(a, b); input a; output b; electrical a, b;"
            " analog V(b) <+ idt(V(a)); endmodule"
        )
        model = convert_signal_flow(module, DT)
        state = model.create_state()
        for _ in range(10):
            env = model.step({"a": 1.0}, state)
        assert env["V(b)"] == pytest.approx(10 * DT)

    def test_conditional_statement(self):
        module = parse_module(
            """
            module clip(a, b); input a; output b; electrical a, b;
            analog begin
              if (V(a) > 1.0) V(b) <+ 1.0; else V(b) <+ V(a);
            end
            endmodule
            """
        )
        model = convert_signal_flow(module, DT)
        assert isinstance(model.assignments[0].expression, Conditional)
        state = model.create_state()
        assert model.step({"a": 0.3}, state)["V(b)"] == pytest.approx(0.3)
        assert model.step({"a": 2.0}, state)["V(b)"] == pytest.approx(1.0)

    def test_sinusoidal_source_uses_abstime(self):
        module = parse_module(
            "module osc(b); output b; electrical b;"
            " analog V(b) <+ sin(6.2831853 * 1k * $abstime); endmodule"
        )
        model = convert_signal_flow(module, DT)
        env = model.step({}, model.create_state(), time=0.25e-3)
        assert env["V(b)"] == pytest.approx(math.sin(2 * math.pi * 0.25), rel=1e-3)

    def test_reassigned_variable_runs_alike_on_every_backend(self, reassigned_model):
        model = reassigned_model
        assert [a.target for a in model.assignments] == ["x", "__idt_0", "x", "V(out)"]
        model.validate()
        stimulus = SineWave(amplitude=1.0, frequency=10e3)
        times = np.arange(1, 201) * model.timestep
        interpreted = model.run({"vin": stimulus}, 200 * model.timestep).waveform("V(out)")
        python = compile_model(model)()
        batch = NumpyGenerator().generate_batch([model]).instantiate()
        assert np.any(interpreted != 0.0)
        np.testing.assert_array_equal(
            [python.step(stimulus(t), t) for t in times], interpreted
        )
        np.testing.assert_array_equal(
            [float(batch.step_batch(stimulus(t), t)[0]) for t in times], interpreted
        )

    def test_conservative_module_rejected(self, rc1_circuit):
        from repro.circuits import rc_filter_source

        module = parse_module(rc_filter_source(1))
        with pytest.raises(AbstractionError):
            convert_signal_flow(module, DT)
