"""Tests for the abstraction pipeline steps (acquisition, enrichment, assemble, solve)."""

from __future__ import annotations

import pytest

from repro.circuits import build_rc_filter, rc_filter_source
from repro.core import (
    AssembledModel,
    Assembler,
    EquationTable,
    acquire,
    enrich,
    is_unknown,
    normalise_output,
    to_signal_flow,
)
from repro.errors import AbstractionError, AcquisitionError, AssembleError
from repro.expr import Call, Constant, Equation, Variable


class TestAcquisition:
    def test_from_circuit(self, rc1_circuit):
        result = acquire(rc1_circuit)
        assert result.node_count == 3
        assert result.branch_count == 3
        assert len(result.dipole_equations) == 3
        assert result.inputs == ["vin"]

    def test_from_source_text(self):
        result = acquire(rc_filter_source(2))
        assert result.branch_count == 5
        assert result.circuit.name == "rc2"

    def test_table_indexed_by_defined_variable(self, rc1_circuit):
        result = acquire(rc1_circuit)
        # Acquisition keeps the dipole equations; enrichment indexes them,
        # with their solved forms, in its table.
        assert len(result.dipole_equations) == 3

    def test_signal_flow_module_rejected(self):
        source = (
            "module g(a, b); input a; output b; electrical a, b;"
            " analog V(b) <+ 2 * V(a); endmodule"
        )
        with pytest.raises(AcquisitionError):
            acquire(source)

    def test_invalid_input_type_rejected(self):
        with pytest.raises(AcquisitionError):
            acquire(12345)

    def test_invalid_topology_rejected(self):
        from repro.network import Circuit

        with pytest.raises(AcquisitionError):
            acquire(Circuit("empty"))


class TestEquationTable:
    def test_candidates_and_disable(self):
        table = EquationTable()
        equation = Equation(Variable("x"), Constant(1.0), name="eq1", origin="class_a")
        table.insert(equation)
        assert len(table.candidates("x")) == 1
        table.disable_origin("class_a")
        assert table.candidates("x") == []
        table.enable_origin("class_a")
        assert len(table.candidates("x")) == 1

    def test_reset_disabled(self):
        table = EquationTable()
        table.insert(Equation(Variable("x"), Constant(1.0), origin="a"))
        table.disable_origin("a")
        table.reset_disabled()
        assert not table.is_origin_disabled("a")

    def test_origins_and_iteration(self):
        table = EquationTable()
        table.extend(
            [
                Equation(Variable("x"), Constant(1.0), origin="a"),
                Equation(Variable("y"), Constant(2.0), origin="b"),
            ]
        )
        assert table.origins() == {"a", "b"}
        assert len(list(table)) == 2
        assert set(table.defined_variables()) == {"x", "y"}


class TestEnrichment:
    def test_statistics(self, rc1_circuit, timestep):
        enrichment = enrich(acquire(rc1_circuit), timestep)
        stats = enrichment.statistics()
        assert stats["kcl"] == 2
        assert stats["kvl"] == 1
        assert stats["solved"] > 0
        assert "V(out)" in enrichment.unknowns
        assert enrichment.inputs == ["vin"]

    def test_discretisation_removes_ddt(self, rc1_circuit, timestep):
        enrichment = enrich(acquire(rc1_circuit), timestep)
        assert all(not entry.equation.has_derivative() for entry in enrichment.table)

    def test_solved_forms_are_indexed(self, rc1_circuit, timestep):
        enrichment = enrich(acquire(rc1_circuit), timestep)
        assert enrichment.table.candidates("V(out)")
        assert enrichment.table.candidates("I(r1)")

    def test_is_unknown_helper(self):
        assert is_unknown("V(a)")
        assert is_unknown("I(b)")
        assert not is_unknown("vin")
        assert not is_unknown("__idt_0")


class TestAssemble:
    def test_normalise_output(self):
        assert normalise_output("out") == "V(out)"
        assert normalise_output("V(out)") == "V(out)"
        assert normalise_output("V(out,gnd)") == "V(out)"
        assert normalise_output("V(a, b)") == "V(a,b)"
        assert normalise_output("I(R1)") == "I(R1)"

    def test_cone_of_influence_excludes_source_current(self, rc1_circuit, timestep):
        enrichment = enrich(acquire(rc1_circuit), timestep)
        assembled = Assembler(enrichment).assemble(["V(out)"])
        assert "V(out)" in assembled.resolutions
        # The voltage-source current does not influence the output.
        assert "I(Vsrc_vin)" in assembled.dropped_unknowns

    def test_dangling_subcircuit_is_dropped(self, timestep):
        circuit = build_rc_filter(1)
        # Add an extra RC branch hanging off the input that cannot affect the
        # output once the input source fixes the node potential.
        circuit.add_resistor("vin", "aux", 1e3, name="Raux")
        circuit.add_capacitor("aux", "gnd", 1e-9, name="Caux")
        enrichment = enrich(acquire(circuit), timestep)
        assembled = Assembler(enrichment).assemble(["V(out)"])
        assert "V(aux)" not in assembled.resolutions
        assert "V(aux)" in assembled.dropped_unknowns

    def test_each_origin_used_once(self, rc3_circuit, timestep):
        enrichment = enrich(acquire(rc3_circuit), timestep)
        assembled = Assembler(enrichment).assemble(["V(out)"])
        assert len(assembled.used_origins) == assembled.cone_size

    def test_unknown_output_fails(self, rc1_circuit, timestep):
        enrichment = enrich(acquire(rc1_circuit), timestep)
        with pytest.raises(AssembleError):
            Assembler(enrichment).assemble(["V(no_such_node)"])

    def test_multiple_outputs(self, rc3_circuit, timestep):
        enrichment = enrich(acquire(rc3_circuit), timestep)
        assembled = Assembler(enrichment).assemble(["V(out)", "V(n1)"])
        assert {"V(out)", "V(n1)"} <= set(assembled.resolutions)


class TestSolve:
    def test_non_affine_row_raises_abstraction_error(self, rc1_circuit, timestep):
        """The solve is numeric: a row that is not affine in the unknowns and
        inputs, such as ``y = sin(vin)``, fails instead of being solved
        symbolically."""
        enrichment = enrich(acquire(rc1_circuit), timestep)
        assembled = AssembledModel(
            outputs=["y"], resolutions={"y": Call("sin", (Variable("vin"),))}, order=["y"]
        )
        with pytest.raises(AbstractionError, match="could not solve"):
            to_signal_flow(assembled, enrichment, "sine", timestep)
