"""Symbolic equations (``lhs == rhs``) built from expression trees.

Dipole equations, Kirchhoff equations and the enriched/solved variants the
abstraction pipeline produces are all instances of :class:`Equation`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import BinaryOp, Expr, Variable
from .linear import solve_for
from .simplify import simplify

#: Equation kinds, mirroring the paper's terminology.
DIPOLE = "dipole"  # constitutive relation of one branch (explicit equation)
KCL = "kcl"  # Kirchhoff current law at a node (implicit equation)
KVL = "kvl"  # Kirchhoff voltage law around a loop (implicit equation)
DERIVED = "derived"  # produced by re-solving another equation for one term
SIGNAL_FLOW = "signal_flow"  # direct assignment from a signal-flow description

EQUATION_KINDS = (DIPOLE, KCL, KVL, DERIVED, SIGNAL_FLOW)


@dataclass
class Equation:
    """A symbolic equation ``lhs == rhs``.

    Attributes
    ----------
    lhs, rhs:
        The two sides of the equation.  For *solved* equations ``lhs`` is a
        single :class:`~repro.expr.ast.Variable` and the equation reads as a
        definition of that variable.
    kind:
        One of :data:`EQUATION_KINDS`.
    name:
        A human-readable identifier (e.g. ``"dipole:R1"`` or ``"kcl:n3"``).
    origin:
        The name of the equation this one was derived from, if any.  The
        enrichment step uses it to group equations into equivalence classes of
        linearly dependent relations, so that using one member disables the
        whole class (paper Section IV.B).
    """

    lhs: Expr
    rhs: Expr
    kind: str = DIPOLE
    name: str = ""
    origin: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in EQUATION_KINDS:
            raise ValueError(f"unknown equation kind {self.kind!r}")
        if not self.name:
            self.name = f"{self.kind}:{self.lhs}"
        if self.origin is None:
            self.origin = self.name

    # -- queries --------------------------------------------------------------
    def variables(self) -> set[str]:
        """Return every variable name used on either side."""
        return self.lhs.variables() | self.rhs.variables()

    def defined_variable(self) -> str | None:
        """Return the variable this equation defines, when the LHS is a variable."""
        if isinstance(self.lhs, Variable):
            return self.lhs.name
        return None

    def residual(self) -> Expr:
        """Return ``lhs - rhs`` (zero when the equation holds)."""
        return simplify(BinaryOp("-", self.lhs, self.rhs))

    def has_derivative(self) -> bool:
        """Return ``True`` if either side contains a ``ddt`` operator."""
        return self.lhs.has_derivative() or self.rhs.has_derivative()

    # -- transformations -------------------------------------------------------
    def solved_for(self, name: str) -> "Equation":
        """Return a new equation with ``name`` isolated on the left-hand side.

        This is the ``Solve(equation, term)`` call in Algorithm 1 of the paper.
        """
        solution = solve_for(self.lhs, self.rhs, name)
        return Equation(
            Variable(name),
            solution,
            kind=DERIVED,
            name=f"{self.name}->{name}",
            origin=self.origin,
        )

    def simplified(self) -> "Equation":
        """Return a copy with both sides simplified."""
        return Equation(
            simplify(self.lhs),
            simplify(self.rhs),
            kind=self.kind,
            name=self.name,
            origin=self.origin,
        )

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"
