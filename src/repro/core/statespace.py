"""Numeric state-space abstraction (cross-check for the symbolic pipeline).

This module derives the same discrete-time input/state/output relations as the
symbolic pipeline, but numerically: the circuit is assembled into its MNA form
(:mod:`repro.network.mna`), the one-step update matrices are computed by a
single matrix inversion, and the rows needed by the outputs of interest are
unrolled into scalar assignments.  The result is a
:class:`~repro.core.signalflow.SignalFlowModel` that must agree (to numerical
precision) with the model produced by acquisition → enrichment → assemble →
solve; property-based tests use this as an oracle.

It is also a useful generator in its own right when the symbolic path is not
required (the paper compares against Model Order Reduction in Section III.C;
this is the "no reduction, exact state space" variant of that discussion).
"""

from __future__ import annotations

import numpy as np

from ..errors import AbstractionError
from ..expr.ast import BinaryOp, Constant, Expr, Previous, Variable
from ..expr.simplify import simplify
from ..network.circuit import Circuit
from ..network.mna import MnaSystem
from .assemble import normalise_output
from .signalflow import Assignment, SignalFlowModel

#: Coefficients with magnitude below this threshold are treated as zero when
#: unrolling matrix rows into scalar expressions.
COEFFICIENT_TOLERANCE = 1e-18


def _linear_combination(
    coefficients: np.ndarray,
    names: list[str],
    make_term,
) -> Expr | None:
    terms: list[Expr] = []
    for coefficient, name in zip(coefficients, names):
        if abs(coefficient) <= COEFFICIENT_TOLERANCE:
            continue
        terms.append(BinaryOp("*", Constant(float(coefficient)), make_term(name)))
    if not terms:
        return None
    expression = terms[0]
    for term in terms[1:]:
        expression = BinaryOp("+", expression, term)
    return expression


def abstract_state_space(
    circuit: Circuit,
    outputs: list[str],
    timestep: float,
    name: str | None = None,
) -> SignalFlowModel:
    """Build a signal-flow model for ``outputs`` from the discretised MNA system.

    Parameters
    ----------
    circuit:
        The conservative description.
    outputs:
        Output designations (``"out"``, ``"V(out)"``, ``"I(branch)"``...).
    timestep:
        Fixed execution timestep; the companion models use backward Euler,
        the discretisation of the symbolic pipeline.
    name:
        Model name (defaults to ``"<circuit>_ss"``).
    """
    system = MnaSystem(circuit, timestep)
    F, G, g0 = system.discrete_state_space()
    unknowns = list(system.index.unknowns)
    inputs = list(system.index.inputs)
    normalised_outputs = [normalise_output(output, circuit.ground) for output in outputs]

    missing = [output for output in normalised_outputs if output not in unknowns]
    if missing:
        raise AbstractionError(
            f"outputs {missing} are not quantities of circuit {circuit.name!r}; "
            f"available quantities: {unknowns}"
        )

    # Cone of influence: a row is needed if it is an output or if a needed row
    # depends on its previous value through F.
    needed: set[int] = {unknowns.index(output) for output in normalised_outputs}
    changed = True
    while changed:
        changed = False
        for row in list(needed):
            for column in range(len(unknowns)):
                if abs(F[row, column]) > COEFFICIENT_TOLERANCE and column not in needed:
                    needed.add(column)
                    changed = True

    assignments: list[Assignment] = []
    states: set[str] = set()
    for row in sorted(needed):
        target = unknowns[row]
        state_part = _linear_combination(
            F[row, :], unknowns, lambda state_name: Previous(state_name)
        )
        input_part = _linear_combination(
            G[row, :], inputs, lambda input_name: Variable(input_name)
        )
        expression: Expr = Constant(float(g0[row])) if abs(g0[row]) > COEFFICIENT_TOLERANCE else Constant(0.0)
        if state_part is not None:
            expression = BinaryOp("+", expression, state_part)
        if input_part is not None:
            expression = BinaryOp("+", expression, input_part)
        expression = simplify(expression)
        states |= expression.previous_values()
        assignments.append(Assignment(target, expression))

    model = SignalFlowModel(
        name=name or f"{circuit.name}_ss",
        inputs=inputs,
        outputs=normalised_outputs,
        assignments=assignments,
        state_variables=sorted(states),
        timestep=timestep,
        source="numeric state-space abstraction (MNA)",
    )
    model.validate()
    return model
