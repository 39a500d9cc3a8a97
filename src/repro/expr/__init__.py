"""Symbolic expression engine.

This package provides the expression trees that the Verilog-AMS frontend
produces, that the abstraction methodology rewrites, and that the code
generators finally emit as C++/SystemC/Python code.  See
:mod:`repro.expr.ast` for the node types.
"""

from .ast import (
    ARITHMETIC_OPERATORS,
    BINARY_OPERATORS,
    COMPARISON_OPERATORS,
    KNOWN_FUNCTIONS,
    LOGICAL_OPERATORS,
    UNARY_OPERATORS,
    Access,
    BinaryOp,
    Call,
    Conditional,
    Constant,
    Derivative,
    Expr,
    Integral,
    Previous,
    UnaryOp,
    Variable,
    rebuild,
    substitute,
    substitute_previous,
    to_string,
    transform,
)
from .discretize import (
    DiscretizationResult,
    Discretizer,
    discretize,
    previous_of,
)
from .evaluate import FUNCTION_TABLE, evaluate
from .equation import DERIVED, DIPOLE, KCL, KVL, SIGNAL_FLOW, Equation
from .linear import (
    AffineDecomposition,
    LinearForm,
    affine_decompose,
    linear_form,
    solve_affine_system,
    solve_for,
)
from .simplify import constant_value, is_constant, simplify

__all__ = [
    "ARITHMETIC_OPERATORS",
    "AffineDecomposition",
    "DERIVED",
    "DIPOLE",
    "Equation",
    "KCL",
    "KVL",
    "SIGNAL_FLOW",
    "affine_decompose",
    "solve_affine_system",
    "BINARY_OPERATORS",
    "COMPARISON_OPERATORS",
    "KNOWN_FUNCTIONS",
    "LOGICAL_OPERATORS",
    "UNARY_OPERATORS",
    "Access",
    "BinaryOp",
    "Call",
    "Conditional",
    "Constant",
    "Derivative",
    "DiscretizationResult",
    "Discretizer",
    "Expr",
    "FUNCTION_TABLE",
    "Integral",
    "LinearForm",
    "Previous",
    "UnaryOp",
    "Variable",
    "constant_value",
    "discretize",
    "evaluate",
    "is_constant",
    "linear_form",
    "previous_of",
    "rebuild",
    "simplify",
    "solve_for",
    "substitute",
    "substitute_previous",
    "to_string",
    "transform",
]
