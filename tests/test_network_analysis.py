"""Tests for Kirchhoff equation generation and the MNA transient solver."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import SingularNetworkError, TopologyError
from repro.expr import evaluate
from repro.network import (
    Circuit,
    MnaSystem,
    VCVS,
    kirchhoff_equations,
    mesh_analysis,
    nodal_analysis,
)
from repro.network.mna import BACKWARD_EULER, TRAPEZOIDAL
from repro.sim import ElnModel


class TestKirchhoff:
    def test_one_kcl_per_non_ground_node(self, rc3_circuit):
        equations = nodal_analysis(rc3_circuit)
        assert len(equations) == len(rc3_circuit.node_names()) - 1
        assert all(eq.kind == "kcl" for eq in equations)

    def test_kcl_balances_series_currents(self, rc1_circuit):
        equations = {eq.name: eq for eq in nodal_analysis(rc1_circuit)}
        # At the output node the resistor current equals the capacitor current.
        out_equation = equations["kcl:out"]
        residual = evaluate(out_equation.residual(), {"I(r1)": 2.0, "I(c1)": 2.0})
        assert residual == pytest.approx(0.0)

    def test_kvl_count_matches_meshes(self, rc3_circuit):
        assert len(mesh_analysis(rc3_circuit)) == 3

    def test_kvl_equations_are_tautological_over_node_potentials(self, rc1_circuit):
        for equation in mesh_analysis(rc1_circuit):
            bindings = {name: 1.234 for name in equation.variables()}
            assert evaluate(equation.residual(), bindings) == pytest.approx(0.0)

    def test_combined_helper(self, rc1_circuit):
        combined = kirchhoff_equations(rc1_circuit)
        assert combined == nodal_analysis(rc1_circuit) + mesh_analysis(rc1_circuit)


class TestMnaStructure:
    def test_unknown_ordering(self, rc1_circuit):
        system = MnaSystem(rc1_circuit, 1e-6)
        assert system.index.unknowns[:2] == ["V(vin)", "V(out)"]
        assert "I(Vsrc_vin)" in system.index.unknowns
        assert system.index.inputs == ["vin"]

    def test_unknown_lookup_errors(self, rc1_circuit):
        system = MnaSystem(rc1_circuit, 1e-6)
        with pytest.raises(TopologyError):
            system.index.unknown("V(none)")
        with pytest.raises(TopologyError):
            system.index.input("none")

    def test_invalid_parameters(self, rc1_circuit):
        with pytest.raises(ValueError):
            MnaSystem(rc1_circuit, 0.0)
        with pytest.raises(ValueError):
            MnaSystem(rc1_circuit, 1e-6, method="simpson")

    def test_trapezoidal_promotes_capacitor_currents(self, rc1_circuit):
        backward = MnaSystem(rc1_circuit, 1e-6, method=BACKWARD_EULER)
        trapezoidal = MnaSystem(rc1_circuit, 1e-6, method=TRAPEZOIDAL)
        assert "I(c1)" not in backward.index.unknowns
        assert "I(c1)" in trapezoidal.index.unknowns

    def test_restamp_is_idempotent(self, rc1_circuit):
        system = MnaSystem(rc1_circuit, 1e-6)
        before = system.A.copy()
        system.restamp()
        assert np.allclose(system.A, before)


class TestMnaSolutions:
    def test_resistive_divider_dc(self):
        circuit = Circuit("div")
        circuit.add_voltage_source("in", "gnd", input_signal="u")
        circuit.add_resistor("in", "mid", 1e3)
        circuit.add_resistor("mid", "gnd", 3e3)
        system = MnaSystem(circuit, 1e-6)
        solution = system.dc_operating_point(system.input_vector({"u": 4.0}))
        assert solution[system.index.unknown("V(mid)")] == pytest.approx(3.0)

    @pytest.mark.parametrize("method", [BACKWARD_EULER, TRAPEZOIDAL])
    def test_rc_step_response(self, rc1_circuit, method):
        tau = 5e3 * 25e-9
        dt = tau / 200.0
        model = ElnModel(rc1_circuit, dt, method=method)
        trace = model.run({"vin": lambda t: 1.0}, 5 * tau, ["V(out)"])["V(out)"]
        expected = 1.0 - math.exp(-trace.times[-1] / tau)
        assert trace.values[-1] == pytest.approx(expected, rel=2e-3)

    def test_trapezoidal_is_more_accurate_than_backward_euler(self, rc1_circuit):
        # Use a smooth ramp stimulus so the comparison is about integration
        # accuracy rather than about how a discontinuity is sampled.
        tau = 5e3 * 25e-9
        dt = tau / 20.0
        slope = 1.0 / tau
        errors = {}
        for method in (BACKWARD_EULER, TRAPEZOIDAL):
            model = ElnModel(rc1_circuit, dt, method=method)
            trace = model.run({"vin": lambda t: slope * t}, 4 * tau, ["V(out)"])["V(out)"]
            analytic = slope * (trace.times - tau * (1.0 - np.exp(-trace.times / tau)))
            errors[method] = np.max(np.abs(trace.values - analytic))
        assert errors[TRAPEZOIDAL] < errors[BACKWARD_EULER]

    def test_rl_circuit_steady_state_current(self):
        circuit = Circuit("rl")
        circuit.add_voltage_source("in", "gnd", input_signal="u")
        circuit.add_resistor("in", "mid", 100.0)
        circuit.add_inductor("mid", "gnd", 1e-3, name="L1")
        tau = 1e-3 / 100.0
        model = ElnModel(circuit, tau / 100.0, method=BACKWARD_EULER)
        trace = model.run({"u": lambda t: 1.0}, 8 * tau, ["I(L1)"])["I(L1)"]
        assert trace.values[-1] == pytest.approx(1.0 / 100.0, rel=1e-2)

    @pytest.mark.parametrize(
        "method, ratio", [(TRAPEZOIDAL, (3.5, 4.5)), (BACKWARD_EULER, (1.8, 2.2))]
    )
    def test_rl_inductor_companion_converges_at_its_order(self, method, ratio):
        # A sine from rest keeps the zero initial state consistent with the
        # input, so the error shows the rule's order, not the half-step
        # shift a step at t = 0 gives the trapezoidal rule.
        resistance, inductance, omega = 100.0, 1e-3, 2 * math.pi * 20e3
        reactance = omega * inductance
        norm = resistance**2 + reactance**2

        def analytic(t):
            return (
                resistance * np.sin(omega * t)
                - reactance * np.cos(omega * t)
                + reactance * np.exp(-resistance * t / inductance)
            ) / norm

        errors = []
        for dt in (100e-9, 50e-9, 25e-9):
            circuit = Circuit("rl")
            circuit.add_voltage_source("in", "gnd", input_signal="u")
            circuit.add_resistor("in", "mid", resistance)
            circuit.add_inductor("mid", "gnd", inductance, name="L1")
            model = ElnModel(circuit, dt, method=method)
            stimulus = {"u": lambda t: math.sin(omega * t)}
            trace = model.run(stimulus, 100e-6, ["I(L1)"])["I(L1)"]
            times = np.asarray(trace.times)
            errors.append(np.max(np.abs(np.asarray(trace.values) - analytic(times))))
        for coarse, fine in zip(errors, errors[1:]):
            assert ratio[0] <= coarse / fine <= ratio[1], errors

    def test_vcvs_amplifier_gain(self):
        circuit = Circuit("amp")
        circuit.add_voltage_source("in", "gnd", input_signal="u")
        circuit.add_resistor("in", "x", 1e3)
        circuit.add_resistor("x", "gnd", 1e3)
        circuit.add(VCVS(10.0, control_positive="x", control_negative="gnd"), "out", "gnd")
        circuit.add_resistor("out", "gnd", 1e3)
        system = MnaSystem(circuit, 1e-6)
        solution = system.dc_operating_point(system.input_vector({"u": 1.0}))
        assert solution[system.index.unknown("V(out)")] == pytest.approx(5.0)

    def test_current_source_into_resistor(self):
        circuit = Circuit("ir")
        circuit.add_current_source("gnd", "n", input_signal="i")
        circuit.add_resistor("n", "gnd", 2e3)
        system = MnaSystem(circuit, 1e-6)
        solution = system.dc_operating_point(system.input_vector({"i": 1e-3}))
        assert solution[system.index.unknown("V(n)")] == pytest.approx(2.0)

    def test_singular_network_raises(self):
        circuit = Circuit("bad")
        # Two ideal voltage sources in parallel with different drivers.
        circuit.add_voltage_source("a", "gnd", input_signal="u1")
        circuit.add_voltage_source("a", "gnd", input_signal="u2")
        system = MnaSystem(circuit, 1e-6)
        with pytest.raises(SingularNetworkError):
            system.step(np.zeros(system.size), system.input_vector({"u1": 1.0, "u2": 2.0}))

    def test_discrete_state_space_matches_stepping(self, rc1_circuit):
        dt = 1e-6
        system = MnaSystem(rc1_circuit, dt)
        F, G, g0 = system.discrete_state_space()
        state = np.zeros(system.size)
        inputs = system.input_vector({"vin": 1.0})
        for _ in range(50):
            state = system.step(state, inputs)
        direct = np.zeros(system.size)
        for _ in range(50):
            direct = F @ direct + G @ inputs + g0
        assert np.allclose(state, direct)

    def test_unsupported_component_rejected(self):
        from repro.network.components import Component

        class Mystery(Component):
            def dipole_equation(self, branch, ground="gnd"):
                raise NotImplementedError

        circuit = Circuit("m")
        circuit.add_voltage_source("a", "gnd", input_signal="u")
        circuit.add(Mystery(), "a", "gnd", name="X1")
        with pytest.raises(TopologyError):
            MnaSystem(circuit, 1e-6)
