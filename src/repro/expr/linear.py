"""Linear-form extraction and linear equation solving.

The last stage of the assemble step (paper Section IV.C, Figure 7) must
remove every un-delayed occurrence of the output of interest from the right
hand side of the assembled equation.  Because conservative descriptions of
electrical linear networks are linear in node potentials and branch flows,
this amounts to decomposing each assembled row into numeric coefficients of
the unknowns and solving the resulting (small) linear system.  The paper
quotes a worst-case cost of O(|N|³) for this step — Gaussian elimination,
which is the LAPACK solve of :func:`solve_affine`.  Every circuit the
frontend or a factory builds has numeric parameters, so every coefficient
folds to a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..errors import NonLinearExpressionError, UnsolvableEquationError
from .ast import BinaryOp, Call, Conditional, Constant, Derivative, Expr, Integral, Previous, UnaryOp, Variable
from .simplify import constant_value, simplify
from .tape import Traced, plain, solve_traced

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class LinearForm:
    """The decomposition ``expr == sum(coefficients[name] * name) + remainder``.

    ``remainder`` groups everything that does not depend on the chosen
    unknowns (inputs, parameters, previous-step values, other variables).
    """

    coefficients: dict[str, Expr]
    remainder: Expr

    def coefficient(self, name: str) -> Expr:
        """Return the coefficient of ``name`` (zero when absent)."""
        return self.coefficients.get(name, Constant(0.0))

    def depends_on(self, name: str) -> bool:
        """Return ``True`` when the coefficient of ``name`` is not exactly zero."""
        coefficient = self.coefficients.get(name)
        if coefficient is None:
            return False
        value = constant_value(coefficient)
        return value is None or value != 0.0


def _merge(
    lhs: dict[str, Expr], rhs: dict[str, Expr], combine
) -> dict[str, Expr]:
    merged = dict(lhs)
    for name, coefficient in rhs.items():
        if name in merged:
            merged[name] = combine(merged[name], coefficient)
        else:
            merged[name] = combine(Constant(0.0), coefficient)
    return merged


def _scale(coefficients: dict[str, Expr], factor: Expr) -> dict[str, Expr]:
    return {name: BinaryOp("*", coefficient, factor) for name, coefficient in coefficients.items()}


def linear_form(expr: Expr, unknowns: Sequence[str] | set[str]) -> LinearForm:
    """Decompose ``expr`` as an affine combination of ``unknowns``.

    Raises
    ------
    NonLinearExpressionError
        When ``expr`` is not affine in the unknowns (e.g. a product of two
        unknowns, an unknown inside a function call or under ``ddt``).
    """
    unknown_set = set(unknowns)

    def visit(node: Expr) -> tuple[dict[str, Expr], Expr]:
        if isinstance(node, Constant) or isinstance(node, Previous):
            return {}, node
        if isinstance(node, Variable):
            if node.name in unknown_set:
                return {node.name: Constant(1.0)}, Constant(0.0)
            return {}, node
        if isinstance(node, UnaryOp):
            coefficients, remainder = visit(node.operand)
            if node.op == "+":
                return coefficients, remainder
            if node.op == "-":
                negated = {
                    name: UnaryOp("-", coefficient)
                    for name, coefficient in coefficients.items()
                }
                return negated, UnaryOp("-", remainder)
            if coefficients:
                raise NonLinearExpressionError(
                    f"logical operator applied to unknowns in {node}"
                )
            return {}, node
        if isinstance(node, BinaryOp):
            left_coefficients, left_remainder = visit(node.lhs)
            right_coefficients, right_remainder = visit(node.rhs)
            if node.op == "+":
                merged = _merge(
                    left_coefficients,
                    right_coefficients,
                    lambda a, b: BinaryOp("+", a, b),
                )
                return merged, BinaryOp("+", left_remainder, right_remainder)
            if node.op == "-":
                merged = _merge(
                    left_coefficients,
                    right_coefficients,
                    lambda a, b: BinaryOp("-", a, b),
                )
                return merged, BinaryOp("-", left_remainder, right_remainder)
            if node.op == "*":
                if left_coefficients and right_coefficients:
                    raise NonLinearExpressionError(
                        f"product of unknowns in {node}"
                    )
                if left_coefficients:
                    return (
                        _scale(left_coefficients, node.rhs),
                        BinaryOp("*", left_remainder, node.rhs),
                    )
                if right_coefficients:
                    return (
                        _scale(right_coefficients, node.lhs),
                        BinaryOp("*", node.lhs, right_remainder),
                    )
                return {}, node
            if node.op == "/":
                if right_coefficients:
                    raise NonLinearExpressionError(
                        f"unknown in a denominator in {node}"
                    )
                if left_coefficients:
                    scaled = {
                        name: BinaryOp("/", coefficient, node.rhs)
                        for name, coefficient in left_coefficients.items()
                    }
                    return scaled, BinaryOp("/", left_remainder, node.rhs)
                return {}, node
            if left_coefficients or right_coefficients:
                raise NonLinearExpressionError(
                    f"operator {node.op!r} applied to unknowns in {node}"
                )
            return {}, node
        if isinstance(node, (Call, Conditional, Derivative, Integral)):
            if not unknown_set.isdisjoint(node.variables()):
                raise NonLinearExpressionError(
                    f"unknowns appear inside a non-linear construct: {node}"
                )
            return {}, node
        raise NonLinearExpressionError(
            f"cannot extract a linear form from {type(node).__name__}"
        )

    coefficients, remainder = visit(expr)
    simplified = {name: simplify(value) for name, value in coefficients.items()}
    nonzero = {name: value for name, value in simplified.items() if not _is_zero(value)}
    return LinearForm(nonzero, simplify(remainder))


def _is_zero(simplified: Expr) -> bool:
    """``constant_value(simplified) == 0.0`` without simplifying it again.

    ``simplify`` is idempotent: a simplified expression folds to a constant
    only when it already is one.
    """
    return isinstance(simplified, Constant) and simplified.value == 0.0


def solve_for(lhs: Expr, rhs: Expr, name: str) -> Expr:
    """Solve the equation ``lhs == rhs`` for the variable ``name``.

    This is the ``Solve`` routine of the paper's enrichment step
    (Algorithm 1, line 7): each equation is re-solved for every term that
    appears in it, producing the enriched hash table.

    Raises
    ------
    UnsolvableEquationError
        When ``name`` does not appear linearly with a non-zero coefficient.
    """
    difference = BinaryOp("-", lhs, rhs)
    try:
        form = linear_form(difference, {name})
    except NonLinearExpressionError as exc:
        raise UnsolvableEquationError(
            f"equation is not linear in {name!r}: {exc}"
        ) from exc
    coefficient = form.coefficient(name)
    if _is_zero(coefficient):
        raise UnsolvableEquationError(f"{name!r} does not appear in the equation")
    solution = BinaryOp("/", UnaryOp("-", form.remainder), coefficient)
    return simplify(solution)


@dataclass
class AffineDecomposition:
    """Numeric affine decomposition of an expression.

    ``expr == sum(unknown_coefficients[u] * u) + sum(atom_coefficients[a] * a) + constant``

    where the unknowns are instantaneous :class:`Variable` quantities chosen by
    the caller and the atoms are every other leaf carrying a value at run time:
    input variables (``("var", name)``) and previous-step values
    (``("prev", name)``).  All coefficients must fold to numbers; otherwise
    :class:`~repro.errors.NonLinearExpressionError` is raised.
    """

    unknown_coefficients: dict[str, float]
    atom_coefficients: dict[tuple[str, str], float]
    constant: float

    def scaled(self, factor: float) -> "AffineDecomposition":
        """Return this decomposition multiplied by ``factor``."""
        return AffineDecomposition(
            {name: value * factor for name, value in self.unknown_coefficients.items()},
            {atom: value * factor for atom, value in self.atom_coefficients.items()},
            self.constant * factor,
        )

    def add(self, other: "AffineDecomposition", sign: float = 1.0) -> "AffineDecomposition":
        """Return ``self + sign * other``."""
        unknowns = dict(self.unknown_coefficients)
        for name, value in other.unknown_coefficients.items():
            unknowns[name] = unknowns.get(name, 0.0) + sign * value
        atoms = dict(self.atom_coefficients)
        for atom, value in other.atom_coefficients.items():
            atoms[atom] = atoms.get(atom, 0.0) + sign * value
        return AffineDecomposition(unknowns, atoms, self.constant + sign * other.constant)

    def is_pure_number(self) -> bool:
        """True when the decomposition has no unknown and no atom contribution."""
        return not any(self.unknown_coefficients.values()) and not any(
            self.atom_coefficients.values()
        )


def affine_decompose(expr: Expr, unknowns: Sequence[str] | set[str]) -> AffineDecomposition:
    """Decompose ``expr`` with *numeric* coefficients; see :class:`AffineDecomposition`.

    Raises
    ------
    NonLinearExpressionError
        When the expression is not affine in the unknowns and atoms, or when a
        coefficient does not fold to a number (symbolic parameters).
    """
    unknown_set = set(unknowns)

    def visit(node: Expr) -> AffineDecomposition:
        if isinstance(node, Constant):
            return AffineDecomposition({}, {}, node.value)
        if isinstance(node, Variable):
            if node.name in unknown_set:
                return AffineDecomposition({node.name: 1.0}, {}, 0.0)
            return AffineDecomposition({}, {("var", node.name): 1.0}, 0.0)
        if isinstance(node, Previous):
            return AffineDecomposition({}, {("prev", node.name): 1.0}, 0.0)
        if isinstance(node, UnaryOp):
            inner = visit(node.operand)
            if node.op == "+":
                return inner
            if node.op == "-":
                return inner.scaled(-1.0)
            raise NonLinearExpressionError(f"cannot decompose logical operator {node.op!r}")
        if isinstance(node, BinaryOp):
            if node.op == "+":
                return visit(node.lhs).add(visit(node.rhs))
            if node.op == "-":
                return visit(node.lhs).add(visit(node.rhs), sign=-1.0)
            if node.op == "*":
                left = visit(node.lhs)
                right = visit(node.rhs)
                if left.is_pure_number():
                    return right.scaled(left.constant)
                if right.is_pure_number():
                    return left.scaled(right.constant)
                raise NonLinearExpressionError(f"product of run-time quantities in {node}")
            if node.op == "/":
                left = visit(node.lhs)
                right = visit(node.rhs)
                if not right.is_pure_number():
                    raise NonLinearExpressionError(f"run-time quantity in a denominator in {node}")
                if right.constant == 0.0:
                    raise NonLinearExpressionError(f"division by zero in {node}")
                return left.scaled(1.0 / right.constant)
            if node.op == "**":
                left = visit(node.lhs)
                right = visit(node.rhs)
                if left.is_pure_number() and right.is_pure_number():
                    return AffineDecomposition({}, {}, left.constant**right.constant)
            raise NonLinearExpressionError(f"operator {node.op!r} is not affine in {node}")
        if isinstance(node, (Call, Conditional, Derivative, Integral)):
            value = constant_value(node) if not isinstance(node, (Derivative, Integral)) else None
            if value is not None:
                return AffineDecomposition({}, {}, value)
            raise NonLinearExpressionError(
                f"non-affine construct {type(node).__name__} in {node}"
            )
        raise NonLinearExpressionError(f"cannot decompose {type(node).__name__}")

    return visit(expr)


@dataclass
class AffineSolution:
    """Numeric solution of ``unknown == expression`` for every unknown.

    Row ``i`` of ``values`` expresses ``unknowns[i]`` through the ``atoms``
    (inputs and previous-step values, one column each) plus a constant in the
    last column.  Entries with ``abs(c) <= tolerance`` count as zero, both in
    :meth:`expression` and in :meth:`previous_values`, so callers can ask
    which previous-step values are referenced before building any row.
    A solve recorded on a tape holds ``values`` as an object array of
    :class:`~repro.expr.tape.Traced` floats, so those tests are its guards.
    """

    unknowns: list[str]
    atoms: list[tuple[str, str]]
    values: "np.ndarray"
    tolerance: float

    def previous_values(self) -> set[str]:
        """Names whose previous-step value has a coefficient in some row."""
        negligible = abs(self.values[:, :-1]) <= self.tolerance
        return {
            name
            for column, (kind, name) in enumerate(self.atoms)
            if kind == "prev" and not negligible[:, column].all()
        }

    def expression(self, name: str) -> Expr:
        """The simplified expression of ``name`` in the atoms."""
        *coefficients, constant = self.values[self.unknowns.index(name)].tolist()
        terms: list[Expr] = []
        for coefficient, (kind, atom_name) in zip(coefficients, self.atoms):
            if abs(coefficient) <= self.tolerance:
                continue
            leaf: Expr = Previous(atom_name) if kind == "prev" else Variable(atom_name)
            terms.append(BinaryOp("*", Constant(coefficient), leaf))
        if abs(constant) > self.tolerance or not terms:
            terms.insert(0, Constant(constant))
        expression = terms[0]
        for term in terms[1:]:
            expression = BinaryOp("+", expression, term)
        return simplify(expression)


def solve_affine(
    equations: Mapping[str, Expr],
    unknowns: Sequence[str],
    tolerance: float = 1e-18,
) -> AffineSolution:
    """Numerically solve ``unknown == expression`` for all ``unknowns``.

    The solution is kept as a matrix; :meth:`AffineSolution.expression`
    builds the expression of one unknown on demand.  See
    :func:`solve_affine_system` for the errors raised.
    """
    import numpy as np

    order = list(unknowns)
    n = len(order)
    index = {name: i for i, name in enumerate(order)}

    decompositions = [affine_decompose(equations[name], order) for name in order]
    atoms: list[tuple[str, str]] = []
    atom_index: dict[tuple[str, str], int] = {}
    for decomposition in decompositions:
        for atom in decomposition.atom_coefficients:
            if atom not in atom_index:
                atom_index[atom] = len(atoms)
                atoms.append(atom)

    # Each entry is written once: ``1 - c`` or ``0 - c`` into the identity,
    # ``0 + c`` into the zeros.  A tape (``repro.expr.tape``) records these
    # operations for a traced coefficient, and ``solve_traced`` the entries.
    matrix = np.eye(n)
    rhs = np.zeros((n, len(atoms) + 1))
    traced = []
    for row, decomposition in enumerate(decompositions):
        entries = [
            (False, row, index[name], (1.0 if index[name] == row else 0.0) - value)
            for name, value in decomposition.unknown_coefficients.items()
        ]
        entries += [
            (True, row, atom_index[atom], 0.0 + value)
            for atom, value in decomposition.atom_coefficients.items()
        ]
        entries.append((True, row, len(atoms), 0.0 + decomposition.constant))
        for entry in entries:
            into_rhs, _, column, value = entry
            if type(value) is Traced:
                traced.append(entry)
                value = plain(value)
            (rhs if into_rhs else matrix)[row, column] = value

    try:
        solution = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise UnsolvableEquationError(
            "the assembled algebraic system is singular"
        ) from exc
    if traced:
        solution = solve_traced(matrix, rhs, traced, solution)
    return AffineSolution(order, atoms, solution, tolerance)


def solve_affine_system(
    equations: Mapping[str, Expr],
    unknowns: Sequence[str],
    tolerance: float = 1e-18,
) -> dict[str, Expr]:
    """Numerically solve ``unknown == expression`` for all ``unknowns``.

    Unlike :func:`solve_affine`, which keeps the solution as a matrix, this
    builds every unknown's expression: a compact affine combination of
    inputs and previous-step values.

    Raises
    ------
    NonLinearExpressionError
        When a row is not affine or a coefficient is not numeric.
    UnsolvableEquationError
        When the system is singular.
    """
    solution = solve_affine(equations, unknowns, tolerance)
    return {name: solution.expression(name) for name in solution.unknowns}
