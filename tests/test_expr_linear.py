"""Tests for linear-form extraction, equation solving and system solving."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import NonLinearExpressionError, UnsolvableEquationError
from repro.expr import (
    BinaryOp,
    Call,
    Constant,
    Derivative,
    Previous,
    Variable,
    affine_decompose,
    constant_value,
    evaluate,
    linear_form,
    solve_affine_system,
    solve_for,
)


class TestLinearForm:
    def test_simple_affine(self):
        x = Variable("x")
        expr = 3.0 * x + Constant(2.0)
        form = linear_form(expr, {"x"})
        assert constant_value(form.coefficient("x")) == 3.0
        assert constant_value(form.remainder) == 2.0

    def test_coefficient_of_absent_variable_is_zero(self):
        form = linear_form(Constant(4.0), {"x"})
        assert constant_value(form.coefficient("x")) == 0.0
        assert not form.depends_on("x")

    def test_division_by_constant(self):
        x = Variable("x")
        form = linear_form(x / 5.0, {"x"})
        assert constant_value(form.coefficient("x")) == pytest.approx(0.2)

    def test_other_variables_go_to_remainder(self):
        x, u = Variable("x"), Variable("u")
        form = linear_form(2.0 * x + u, {"x"})
        assert "u" in form.remainder.variables()

    def test_product_of_unknowns_is_nonlinear(self):
        x, y = Variable("x"), Variable("y")
        with pytest.raises(NonLinearExpressionError):
            linear_form(x * y, {"x", "y"})

    def test_unknown_in_denominator_is_nonlinear(self):
        x = Variable("x")
        with pytest.raises(NonLinearExpressionError):
            linear_form(Constant(1.0) / x, {"x"})

    def test_unknown_inside_function_is_nonlinear(self):
        x = Variable("x")
        with pytest.raises(NonLinearExpressionError):
            linear_form(Call("sin", (x,)), {"x"})

    def test_unknown_under_ddt_is_nonlinear(self):
        x = Variable("x")
        with pytest.raises(NonLinearExpressionError):
            linear_form(Derivative(x), {"x"})


class TestSolveFor:
    def test_isolates_variable(self):
        # 2*x + 3 = 11  ->  x = 4
        solution = solve_for(2.0 * Variable("x") + 3.0, Constant(11.0), "x")
        assert constant_value(solution) == pytest.approx(4.0)

    def test_solution_keeps_other_symbols(self):
        # V = R * I  solved for I  ->  I = V / R with V symbolic
        solution = solve_for(Variable("V"), 5000.0 * Variable("I"), "I")
        assert evaluate(solution, {"V": 10.0}) == pytest.approx(10.0 / 5000.0)

    def test_missing_variable_raises(self):
        with pytest.raises(UnsolvableEquationError):
            solve_for(Variable("a"), Constant(1.0), "x")

    def test_cancelled_variable_raises(self):
        # x - x = 1 cannot be solved for x.
        with pytest.raises(UnsolvableEquationError):
            solve_for(Variable("x") - Variable("x"), Constant(1.0), "x")


class TestAffineDecompose:
    def test_classifies_atoms(self):
        expr = 2.0 * Variable("x") + 3.0 * Previous("s") + Variable("u") + Constant(1.0)
        decomposition = affine_decompose(expr, {"x"})
        assert decomposition.unknown_coefficients == {"x": 2.0}
        assert decomposition.atom_coefficients[("prev", "s")] == 3.0
        assert decomposition.atom_coefficients[("var", "u")] == 1.0
        assert decomposition.constant == 1.0

    def test_scaling_through_division(self):
        expr = BinaryOp("/", Variable("x"), Constant(4.0))
        decomposition = affine_decompose(expr, {"x"})
        assert decomposition.unknown_coefficients["x"] == pytest.approx(0.25)

    def test_nonlinear_raises(self):
        with pytest.raises(NonLinearExpressionError):
            affine_decompose(Variable("x") * Variable("u"), {"x", "u"})


class TestSolveSystems:
    def test_two_by_two_affine_system(self):
        # x = 0.5*y + u ;  y = 0.5*x + 1
        equations = {
            "x": 0.5 * Variable("y") + Variable("u"),
            "y": 0.5 * Variable("x") + Constant(1.0),
        }
        solution = solve_affine_system(equations, ["x", "y"])
        # Closed form: x = (0.5 + u)/0.75, y = (1 + 0.5*u)/0.75
        x_value = evaluate(solution["x"], {"u": 2.0})
        y_value = evaluate(solution["y"], {"u": 2.0})
        assert x_value == pytest.approx((0.5 + 2.0) / 0.75)
        assert y_value == pytest.approx((1.0 + 0.5 * 2.0) / 0.75)

    def test_singular_system_raises(self):
        equations = {"x": Variable("y"), "y": Variable("x")}
        with pytest.raises(UnsolvableEquationError):
            solve_affine_system(equations, ["x", "y"])

    def test_empty_system(self):
        assert solve_affine_system({}, []) == {}


# -- property-based: random well-conditioned systems are solved correctly ----------------
@given(
    st.lists(
        st.floats(min_value=-0.4, max_value=0.4, allow_nan=False),
        min_size=4,
        max_size=4,
    ),
    st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        min_size=2,
        max_size=2,
    ),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
def test_affine_solution_satisfies_equations(coupling, constants, input_value):
    """The solved expressions must satisfy the original implicit equations."""
    x, y, u = Variable("x"), Variable("y"), Variable("u")
    equations = {
        "x": coupling[0] * x + coupling[1] * y + constants[0] * u,
        "y": coupling[2] * x + coupling[3] * y + Constant(constants[1]),
    }
    solution = solve_affine_system(equations, ["x", "y"])
    values = {
        "u": input_value,
        "x": evaluate(solution["x"], {"u": input_value}),
        "y": evaluate(solution["y"], {"u": input_value}),
    }
    for name, rhs in equations.items():
        assert values[name] == pytest.approx(evaluate(rhs, values), rel=1e-7, abs=1e-7)
