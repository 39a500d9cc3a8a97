"""Tests for discretisation and equations."""

from __future__ import annotations

import pytest

from repro.errors import UnsolvableEquationError
from repro.expr import (
    Constant,
    Derivative,
    Discretizer,
    Equation,
    Integral,
    Variable,
    discretize,
    evaluate,
    previous_of,
)
from repro.expr.equation import DIPOLE, KCL


class TestDiscretize:
    def test_ddt_backward_euler(self):
        dt = 1e-6
        result = discretize(Derivative(Variable("x")), dt)
        value = evaluate(result.expression, {"x": 2.0}, previous={"x": 1.0})
        assert value == pytest.approx((2.0 - 1.0) / dt)
        assert not result.integrator_updates

    def test_ddt_of_expression_delays_every_variable(self):
        dt = 0.5
        expr = Derivative(Variable("a") - Variable("b"))
        result = discretize(expr, dt)
        value = evaluate(
            result.expression, {"a": 3.0, "b": 1.0}, previous={"a": 2.0, "b": 1.0}
        )
        assert value == pytest.approx(((3.0 - 1.0) - (2.0 - 1.0)) / dt)

    def test_idt_introduces_accumulator(self):
        result = discretize(Integral(Variable("x")), 1e-3)
        assert len(result.integrator_updates) == 1
        name, update = next(iter(result.integrator_updates.items()))
        assert name.startswith("__idt")
        assert name in result.expression.variables()
        # The accumulator update is prev(acc) + dt * x.
        value = evaluate(update, {"x": 2.0}, previous={name: 1.0})
        assert value == pytest.approx(1.0 + 1e-3 * 2.0)

    def test_idt_with_initial_condition(self):
        result = discretize(Integral(Variable("x"), Constant(5.0)), 1e-3)
        value = evaluate(
            result.expression,
            {"x": 0.0, "__idt_0": 0.0},
            previous={"__idt_0": 0.0},
        )
        assert value == pytest.approx(5.0)

    def test_unique_accumulator_names(self):
        discretizer = Discretizer(1e-3)
        first = discretizer.discretize(Integral(Variable("x")))
        second = discretizer.discretize(Integral(Variable("y")))
        assert set(first.integrator_updates) != set(second.integrator_updates)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Discretizer(0.0)

    def test_previous_of(self):
        expr = Variable("a") + 2.0 * Variable("b")
        delayed = previous_of(expr)
        assert delayed.previous_values() == {"a", "b"}
        assert delayed.variables() == set()


class TestEquation:
    def test_defined_variable(self):
        equation = Equation(Variable("x"), Constant(1.0))
        assert equation.defined_variable() == "x"
        implicit = Equation(Variable("x") + Variable("y"), Constant(0.0), kind=KCL)
        assert implicit.defined_variable() is None

    def test_residual(self):
        equation = Equation(Variable("x"), Constant(3.0))
        assert evaluate(equation.residual(), {"x": 3.0}) == 0.0

    def test_solved_for_preserves_origin(self):
        equation = Equation(
            Variable("V"), 5000.0 * Variable("I"), kind=DIPOLE, name="dipole:R1"
        )
        solved = equation.solved_for("I")
        assert solved.origin == "dipole:R1"
        assert solved.defined_variable() == "I"
        assert evaluate(solved.rhs, {"V": 5.0}) == pytest.approx(0.001)

    def test_solved_for_unknown_term_raises(self):
        equation = Equation(Variable("x"), Constant(1.0))
        with pytest.raises(UnsolvableEquationError):
            equation.solved_for("zz")

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            Equation(Variable("x"), Constant(0.0), kind="bogus")

    def test_has_derivative_and_simplified(self):
        equation = Equation(Variable("i"), Constant(2.0) * Derivative(Variable("v")))
        assert equation.has_derivative()
        simplified = Equation(Variable("x"), Constant(1.0) * Variable("y")).simplified()
        assert simplified.rhs == Variable("y")
