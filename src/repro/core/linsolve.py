"""Step 3b — Solution of the linear equation(s) (paper Section IV.C, Figure 7).

The tree produced by the assemble step still contains un-delayed occurrences
of the selected unknowns on the right-hand sides ("occurrences of the left
value on the right side of the equation").  Interpreting the ``=`` sign as an
assignment would introduce a spurious one-step delay, so these occurrences
must be removed by solving the relations symbolically — the paper quotes an
O(|N|³) cost for this, i.e. Gaussian elimination, which is what
:func:`repro.expr.linear.solve_linear_system` performs.

After the solve, every selected quantity is expressed explicitly in terms of
inputs and previous-step values only.  Only the quantities the model needs —
its outputs and its state variables — become assignments of the resulting
:class:`~repro.core.signalflow.SignalFlowModel`.
"""

from __future__ import annotations

from ..errors import AbstractionError, NonLinearExpressionError
from ..expr.linear import solve_affine, solve_linear_system
from ..expr.simplify import simplify
from .assemble import AssembledModel
from .enrichment import EnrichmentResult
from .signalflow import Assignment, SignalFlowModel


def to_signal_flow(
    assembled: AssembledModel,
    enrichment: EnrichmentResult,
    name: str,
    timestep: float,
    inputs: list[str] | None = None,
    initial_state: dict[str, float] | None = None,
) -> SignalFlowModel:
    """Solve the assembled relations and build the signal-flow model.

    Only the kept rows become assignments: the outputs and every quantity
    whose previous-step value is referenced (the state variables), in
    ``assembled.order``.  The other unknowns were needed for the elimination
    but would be dead code in the generated model.  On the numeric path the
    state set is read off the solution matrix, so the dropped rows are never
    built or simplified.

    Parameters
    ----------
    assembled:
        Result of :class:`repro.core.assemble.Assembler`.
    enrichment:
        The enrichment result the assembly was computed from.
    name:
        Name given to the generated model.
    timestep:
        The fixed timestep the model is generated for (must match the
        discretisation used during enrichment).
    inputs:
        Stimulus names; defaults to the ones recorded during acquisition.
    initial_state:
        Optional initial values ``X0`` for the state variables.
    """
    unknowns = list(assembled.order)
    if not unknowns:
        raise AbstractionError("the assembled model is empty")

    try:
        # Fast path: every coefficient is numeric (parameters known at
        # abstraction time), so the elimination is done with numbers and the
        # generated expressions stay compact.
        solution = solve_affine(assembled.resolutions, unknowns)
    except NonLinearExpressionError:
        # Symbolic parameters: fall back to expression-valued Gaussian
        # elimination (slower and bulkier, but general).
        try:
            solved = solve_linear_system(assembled.resolutions, unknowns)
        except Exception as exc:
            raise AbstractionError(
                f"could not solve the assembled linear system for {name!r}: {exc}"
            ) from exc
        expressions = {target: simplify(solved[target]) for target in unknowns}
        states: set[str] = set()
        for expression in expressions.values():
            states |= expression.previous_values()
        expression_of = expressions.__getitem__
    except Exception as exc:
        raise AbstractionError(
            f"could not solve the assembled linear system for {name!r}: {exc}"
        ) from exc
    else:
        states = solution.previous_values()
        expression_of = solution.expression

    # Only keep assignments that contribute to the outputs or to a state
    # update; everything else was needed during elimination but is dead code
    # in the generated model.
    needed = set(assembled.outputs) | states
    kept = [Assignment(target, expression_of(target)) for target in unknowns if target in needed]

    model = SignalFlowModel(
        name=name,
        inputs=list(inputs if inputs is not None else enrichment.inputs),
        outputs=list(assembled.outputs),
        assignments=kept,
        state_variables=sorted(states),
        initial_state=dict(initial_state or {}),
        timestep=timestep,
        source="conservative abstraction (acquisition/enrichment/assemble/solve)",
    )
    model.validate()
    return model
