"""Tests for the circuit container, components and topology graph."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.network import (
    Capacitor,
    Circuit,
    CircuitGraph,
    Inductor,
    Resistor,
    VoltageSource,
    count_state_variables,
)


class TestCircuitConstruction:
    def test_auto_naming_by_type(self):
        circuit = Circuit("c")
        first = circuit.add_resistor("a", "b", 100.0)
        second = circuit.add_resistor("b", "gnd", 200.0)
        assert (first.name, second.name) == ("R1", "R2")

    def test_duplicate_branch_name_rejected(self):
        circuit = Circuit("c")
        circuit.add_resistor("a", "gnd", 100.0, name="R1")
        with pytest.raises(TopologyError):
            circuit.add_resistor("a", "gnd", 100.0, name="R1")

    def test_self_loop_rejected(self):
        circuit = Circuit("c")
        with pytest.raises(TopologyError):
            circuit.add_resistor("a", "a", 100.0)

    def test_component_value_validation(self):
        with pytest.raises(ValueError):
            Resistor(-1.0)
        with pytest.raises(ValueError):
            Capacitor(0.0)

    @pytest.mark.parametrize("component", [Resistor, Capacitor, Inductor])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_component_values_are_refused(self, component, value):
        with pytest.raises(ValueError, match="finite and positive"):
            component(value)

    @pytest.mark.parametrize(
        "component, initial",
        [(Capacitor, "initial_voltage"), (Inductor, "initial_current")],
    )
    def test_components_take_no_initial_condition(self, component, initial):
        # Every solver starts from zero, so a set initial condition would be
        # silently ignored.
        with pytest.raises(TypeError):
            component(1e-6, **{initial: 1.0})

    def test_branches_at_and_other_end(self):
        circuit = Circuit("c")
        branch = circuit.add_resistor("a", "b", 1.0)
        assert circuit.branches_at("a") == [branch]
        assert branch.other_end("a") == "b"
        with pytest.raises(TopologyError):
            branch.other_end("zz")

    def test_input_names_in_order(self):
        circuit = Circuit("c")
        circuit.add_voltage_source("a", "gnd", input_signal="u1")
        circuit.add_voltage_source("b", "gnd", input_signal="u2")
        circuit.add_resistor("a", "b", 1.0)
        assert circuit.input_names() == ["u1", "u2"]

    def test_count_state_variables(self, rc3_circuit):
        assert count_state_variables(rc3_circuit) == 3


class TestValidation:
    def test_empty_circuit_rejected(self):
        with pytest.raises(TopologyError):
            Circuit("c").validate()

    def test_floating_section_rejected(self):
        circuit = Circuit("c")
        circuit.add_resistor("a", "gnd", 1.0)
        circuit.add_resistor("x", "y", 1.0)  # not connected to ground
        with pytest.raises(TopologyError, match="not connected"):
            circuit.validate()

    def test_missing_ground_rejected(self):
        circuit = Circuit("c")
        circuit.add_resistor("a", "b", 1.0)
        with pytest.raises(TopologyError):
            circuit.validate()

    def test_valid_circuit_passes(self, rc1_circuit):
        rc1_circuit.validate()


class TestDipoleEquations:
    def test_resistor_equation_shape(self):
        circuit = Circuit("c")
        circuit.add_voltage_source("a", "gnd", input_signal="u")
        circuit.add_resistor("a", "gnd", 50.0, name="R1")
        equations = {eq.name: str(eq) for eq in circuit.dipole_equations()}
        assert equations["dipole:R1"] == "V(a) - 0 = 50 * I(R1)"

    def test_capacitor_equation_has_ddt(self):
        circuit = Circuit("c")
        circuit.add_voltage_source("a", "gnd", input_signal="u")
        circuit.add_capacitor("a", "gnd", 1e-9, name="C1")
        cap = [eq for eq in circuit.dipole_equations() if eq.name == "dipole:C1"][0]
        assert cap.has_derivative()

    def test_source_equation_references_input(self):
        circuit = Circuit("c")
        circuit.add_voltage_source("a", "gnd", input_signal="u", name="V1")
        circuit.add_resistor("a", "gnd", 1.0)
        source = [eq for eq in circuit.dipole_equations() if eq.name == "dipole:V1"][0]
        assert "u" in source.variables()


class TestGraph:
    def test_counts(self, rc3_circuit):
        graph = CircuitGraph(rc3_circuit)
        assert graph.node_count == 5  # gnd, vin, n1, n2, out
        assert graph.branch_count == 7  # source + 3 R + 3 C
        assert graph.mesh_count() == 3

    def test_spanning_tree_reaches_every_node(self, rc3_circuit):
        graph = CircuitGraph(rc3_circuit)
        tree = graph.spanning_tree()
        assert set(tree) == set(rc3_circuit.node_names())
        assert tree[rc3_circuit.ground] is None

    def test_chords_plus_tree_is_everything(self, rc3_circuit):
        graph = CircuitGraph(rc3_circuit)
        tree = graph.tree_branches()
        chords = {branch.name for branch in graph.chords()}
        assert tree | chords == set(rc3_circuit.branch_names())
        assert not tree & chords

    def test_fundamental_loops_one_per_chord(self, rc3_circuit):
        graph = CircuitGraph(rc3_circuit)
        loops = graph.fundamental_loops()
        assert len(loops) == graph.mesh_count()
        for loop in loops:
            # Every loop is a closed walk: each node is entered and left.
            assert len(loop.edges) >= 2

    def test_loop_orientation_sums_to_zero(self, rc3_circuit):
        """Traversing a fundamental loop must return to the starting node."""
        graph = CircuitGraph(rc3_circuit)
        for loop in graph.fundamental_loops():
            balance: dict[str, int] = {}
            for edge in loop.edges:
                branch = rc3_circuit.branch(edge.branch)
                start, end = (
                    (branch.positive, branch.negative)
                    if edge.forward
                    else (branch.negative, branch.positive)
                )
                balance[start] = balance.get(start, 0) + 1
                balance[end] = balance.get(end, 0) - 1
            assert all(value == 0 for value in balance.values())

    def test_reachability(self, rc1_circuit):
        graph = CircuitGraph(rc1_circuit)
        assert graph.reachable_from("gnd") == set(rc1_circuit.node_names())
        with pytest.raises(TopologyError):
            graph.reachable_from("nope")

    def test_degree_and_neighbours(self, rc1_circuit):
        graph = CircuitGraph(rc1_circuit)
        assert graph.degree("out") == 2
        assert set(graph.neighbours("out")) == {"vin", "gnd"}
