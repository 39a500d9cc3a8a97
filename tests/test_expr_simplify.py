"""Unit and property-based tests for the expression simplifier."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, reject, settings, strategies as st

from repro.errors import EvaluationError
from repro.expr import (
    BinaryOp,
    Call,
    Conditional,
    Constant,
    Derivative,
    Previous,
    UnaryOp,
    Variable,
    constant_value,
    evaluate,
    is_constant,
    rebuild,
    simplify,
)


class TestIdentities:
    def test_addition_with_zero(self):
        x = Variable("x")
        assert simplify(x + 0) == x
        assert simplify(0 + x) == x

    def test_multiplication_identities(self):
        x = Variable("x")
        assert simplify(x * 1) == x
        assert simplify(1 * x) == x
        assert simplify(x * 0) == Constant(0.0)
        assert simplify(x * -1) == UnaryOp("-", x)

    def test_subtraction_identities(self):
        x = Variable("x")
        assert simplify(x - 0) == x
        assert simplify(x - x) == Constant(0.0)
        assert simplify(0 - x) == UnaryOp("-", x)

    def test_division_identities(self):
        x = Variable("x")
        assert simplify(x / 1) == x
        assert simplify(0 / x) == Constant(0.0)

    def test_power_identities(self):
        x = Variable("x")
        assert simplify(x ** 1) == x
        assert simplify(x ** 0) == Constant(1.0)

    def test_double_negation_removed(self):
        x = Variable("x")
        assert simplify(UnaryOp("-", UnaryOp("-", x))) == x

    def test_negative_divided_by_negative(self):
        x = Variable("x")
        expr = BinaryOp("/", UnaryOp("-", x), Constant(-5.0))
        assert simplify(expr) == BinaryOp("/", x, Constant(5.0))

    def test_subtracting_a_negation_becomes_addition(self):
        x, y = Variable("x"), Variable("y")
        assert simplify(BinaryOp("-", x, UnaryOp("-", y))) == BinaryOp("+", x, y)

    def test_a_rule_exposed_by_a_rewrite_applies_in_the_same_pass(self):
        x = Variable("x")
        # x + (-x) becomes x - x, which must fold now: simplify is idempotent.
        assert simplify(BinaryOp("+", x, UnaryOp("-", x))) == Constant(0.0)


class TestConstantFolding:
    def test_arithmetic_folding(self):
        assert simplify(Constant(2) + Constant(3)) == Constant(5.0)
        assert simplify(Constant(2) * Constant(3)) == Constant(6.0)
        assert simplify(Constant(7) / Constant(2)) == Constant(3.5)

    def test_division_by_zero_not_folded(self):
        expr = BinaryOp("/", Constant(1), Constant(0))
        assert simplify(expr) == expr

    def test_function_folding(self):
        assert simplify(Call("sqrt", (Constant(16.0),))) == Constant(4.0)
        assert simplify(Call("max", (Constant(1.0), Constant(3.0)))) == Constant(3.0)

    def test_comparison_folding(self):
        assert simplify(BinaryOp("<", Constant(1), Constant(2))) == Constant(1.0)

    def test_conditional_with_constant_condition(self):
        expr = Conditional(Constant(1.0), Variable("a"), Variable("b"))
        assert simplify(expr) == Variable("a")
        expr = Conditional(Constant(0.0), Variable("a"), Variable("b"))
        assert simplify(expr) == Variable("b")

    def test_conditional_with_identical_branches(self):
        expr = Conditional(Variable("c"), Variable("a"), Variable("a"))
        assert simplify(expr) == Variable("a")

    def test_ddt_of_constant_is_zero(self):
        assert simplify(Derivative(Constant(5.0))) == Constant(0.0)


class TestHelpers:
    def test_is_constant(self):
        assert is_constant(Constant(1) + Constant(2))
        assert not is_constant(Variable("x") + Constant(2))
        assert not is_constant(Previous("x"))

    def test_constant_value(self):
        assert constant_value(Constant(2) * Constant(3)) == 6.0
        assert constant_value(Variable("x")) is None


# -- property-based: simplification preserves the numeric value --------------------------
_leaf = st.one_of(
    st.floats(min_value=-10, max_value=10, allow_nan=False).map(Constant),
    st.sampled_from([Variable("x"), Variable("y"), Previous("x")]),
)


def _combine(children):
    operator = st.sampled_from(["+", "-", "*"])
    return st.builds(lambda op, a, b: BinaryOp(op, a, b), operator, children, children)


_expression = st.recursive(_leaf, _combine, max_leaves=12)


@given(_expression)
def test_simplify_preserves_value(expr):
    bindings = {"x": 1.37, "y": -2.5}
    previous = {"x": 0.25}
    original = evaluate(expr, bindings, previous=previous)
    simplified = evaluate(simplify(expr), bindings, previous=previous)
    assert simplified == pytest.approx(original, rel=1e-9, abs=1e-9)


@given(_expression)
def test_simplify_is_idempotent(expr):
    once = simplify(expr)
    twice = simplify(once)
    assert once == twice


# -- property-based: the full grammar the rewrite rules act on ----------------------------
_full_leaf = st.one_of(
    st.floats(min_value=-10, max_value=10, allow_nan=False).map(Constant),
    # The literals the identity rules key on.
    st.sampled_from([0.0, 1.0, -1.0]).map(Constant),
    st.sampled_from([Variable("x"), Variable("y"), Previous("x")]),
)


def _shared(op, operand, negated):
    """``operand`` on both sides, as substitution produces: ``e - e``, ``e + (-e)``, ..."""
    return BinaryOp(op, operand, UnaryOp("-", operand) if negated else operand)


def _combine_full(children):
    operators = st.sampled_from(["+", "-", "*", "/"])
    return st.one_of(
        st.builds(BinaryOp, operators, children, children),
        st.builds(_shared, operators, children, st.booleans()),
        st.builds(UnaryOp, st.sampled_from(["-", "+"]), children),
        st.builds(
            lambda func, arg: Call(func, (arg,)), st.sampled_from(["exp", "sin", "abs"]), children
        ),
        st.builds(Conditional, children, children, children),
        st.builds(Derivative, children),
    )


_full_expression = st.recursive(_full_leaf, _combine_full, max_leaves=12)


def _bindings(step: int) -> dict[str, float]:
    """Variable values at ``step``; ``prev(x)`` reads them one step earlier."""
    return {"x": 1.37 + 0.25 * step, "y": -2.5 + 0.5 * step}


def _value(expr, step: int = 0) -> float:
    """Evaluate ``expr`` at ``step``, where ``ddt(e)`` is ``e`` minus ``e`` a step earlier.

    Every sub-expression is evaluated, branches not taken included, and must
    be finite, else :class:`EvaluationError` is raised: the simplifier may
    drop a sub-expression (``e * 0``, ``e - e``), so it promises the same
    value only where every sub-expression has one.
    """
    if isinstance(expr, Derivative):
        value = _value(expr.operand, step) - _value(expr.operand, step - 1)
    else:
        folded = rebuild(expr, [Constant(_value(child, step)) for child in expr.children()])
        value = evaluate(folded, _bindings(step), previous=_bindings(step - 1))
    if not math.isfinite(value):
        raise EvaluationError(f"{expr} is not finite at step {step}")
    return value


@settings(max_examples=300)
@given(_full_expression)
def test_simplify_preserves_value_over_the_full_grammar(expr):
    try:
        original = _value(expr)
    except EvaluationError:
        reject()
    assert _value(simplify(expr)) == pytest.approx(original, rel=1e-9, abs=1e-9)


@settings(max_examples=300)
@given(_full_expression)
def test_simplify_is_idempotent_over_the_full_grammar(expr):
    once = simplify(expr)
    assert simplify(once) == once
