"""Discretisation of continuous-time analog operators (``ddt``/``idt``).

The generated signal-flow models are executed at a fixed timestep by the
virtual platform (paper Section IV.C: occurrences of the output on the right
hand side "are already delayed by Δt").  This module rewrites the
continuous-time operators of Verilog-AMS into difference equations over that
timestep:

* ``ddt(x)``  →  ``(x - prev(x)) / dt``          (backward Euler derivative)
* ``idt(x)``  →  an accumulator state updated as ``acc = prev(acc) + dt*x``

``prev(x)`` denotes the value of ``x`` one timestep earlier and becomes a
state variable of the generated model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import (
    BinaryOp,
    Constant,
    Derivative,
    Expr,
    Integral,
    Previous,
    Variable,
    transform,
)
from .simplify import simplify


def previous_of(expr: Expr) -> Expr:
    """Return ``expr`` with every instantaneous variable delayed by one step."""

    def visit(node: Expr) -> Expr:
        if isinstance(node, Variable):
            return Previous(node.name)
        return node

    return transform(expr, visit)


@dataclass
class DiscretizationResult:
    """Outcome of discretising one expression.

    Attributes
    ----------
    expression:
        The rewritten expression; it references :class:`Previous` values and
        possibly freshly introduced accumulator variables.
    integrator_updates:
        Update expressions for accumulator states introduced for ``idt``
        operators, keyed by the accumulator variable name.  The update must be
        evaluated every step *before* ``expression`` (it only references the
        accumulator's previous value and instantaneous quantities).
    """

    expression: Expr
    integrator_updates: dict[str, Expr] = field(default_factory=dict)


class Discretizer:
    """Rewrites ``ddt``/``idt`` operators against a fixed timestep.

    A single instance should be reused across all equations of a model so
    that accumulator names stay unique.
    """

    def __init__(self, timestep: float) -> None:
        if timestep <= 0.0:
            raise ValueError("the discretisation timestep must be positive")
        self.timestep = float(timestep)
        self._integrator_count = 0

    def _next_integrator_name(self) -> str:
        name = f"__idt_{self._integrator_count}"
        self._integrator_count += 1
        return name

    def discretize(self, expr: Expr) -> DiscretizationResult:
        """Rewrite every ``ddt``/``idt`` in ``expr``; see :class:`DiscretizationResult`."""
        updates: dict[str, Expr] = {}
        dt = Constant(self.timestep)

        def visit(node: Expr) -> Expr:
            if isinstance(node, Derivative):
                operand = node.operand
                return BinaryOp("/", BinaryOp("-", operand, previous_of(operand)), dt)
            if isinstance(node, Integral):
                name = self._next_integrator_name()
                update = BinaryOp("+", Previous(name), BinaryOp("*", dt, node.operand))
                updates[name] = simplify(update)
                result: Expr = Variable(name)
                if node.initial is not None:
                    result = BinaryOp("+", result, node.initial)
                return result
            return node

        rewritten = transform(expr, visit)
        return DiscretizationResult(simplify(rewritten), updates)


def discretize(expr: Expr, timestep: float) -> DiscretizationResult:
    """One-shot helper around :class:`Discretizer` for a single expression."""
    return Discretizer(timestep).discretize(expr)
