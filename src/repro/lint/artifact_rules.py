"""Layer 2: the signal-flow IR checks.

Static contract checks over the :class:`~repro.core.signalflow.SignalFlowModel`
IR the abstraction pipeline produces, run before any backend executes it.
The fuzz oracle runs them as a pre-execution stage (:mod:`repro.zoo.oracle`);
no other caller does.  Every backend's generated source is pinned by
``tests/corpus/target_outcomes.json`` instead.

Rules:

* ``ir-undefined-reference`` / ``ir-state-never-computed`` /
  ``ir-output-never-computed`` — the :meth:`SignalFlowModel.validate`
  contract, reported as diagnostics instead of raised;
* ``ir-duplicate-target`` — the same quantity assigned twice in one step;
* ``ir-nonfinite-constant`` / ``ir-nonpositive-timestep`` — NaN/Inf
  literals baked into the model, or a timestep the integrators cannot use.
"""

from __future__ import annotations

import math

from ..core.signalflow import TIME_VARIABLE, SignalFlowModel
from ..expr.ast import Constant
from .diagnostics import SEVERITY_ERROR, LintReport


def lint_model(model: SignalFlowModel, file: str = "<model>") -> LintReport:
    """Contract checks over a signal-flow model, as diagnostics."""
    report = LintReport()
    known: set[str] = set(model.inputs) | {TIME_VARIABLE}
    targets = list(model.assignment_targets())
    target_set = set(targets)

    seen: set[str] = set()
    for target in targets:
        if target in seen:
            report.add(
                "ir-duplicate-target",
                SEVERITY_ERROR,
                f"quantity {target!r} is assigned more than once per step",
                file=file,
            )
        seen.add(target)

    for assignment in model.assignments:
        for name in assignment.expression.variables():
            if name in known or name in target_set:
                continue
            report.add(
                "ir-undefined-reference",
                SEVERITY_ERROR,
                f"assignment {assignment.target!r} references the unknown "
                f"quantity {name!r}",
                file=file,
            )
        for node in assignment.expression.walk():
            if isinstance(node, Constant) and not math.isfinite(node.value):
                report.add(
                    "ir-nonfinite-constant",
                    SEVERITY_ERROR,
                    f"assignment {assignment.target!r} contains the "
                    f"non-finite constant {node.value!r}",
                    file=file,
                )
        known.add(assignment.target)

    for state in model.referenced_states():
        if state not in target_set and state not in model.inputs:
            report.add(
                "ir-state-never-computed",
                SEVERITY_ERROR,
                f"state variable {state!r} is referenced but never computed",
                file=file,
            )
    for output in model.outputs:
        if output not in target_set and output not in model.inputs:
            report.add(
                "ir-output-never-computed",
                SEVERITY_ERROR,
                f"output {output!r} is never computed",
                file=file,
            )
    for state, value in model.initial_state.items():
        if not math.isfinite(value):
            report.add(
                "ir-nonfinite-constant",
                SEVERITY_ERROR,
                f"initial state of {state!r} is non-finite ({value!r})",
                file=file,
            )
    if not (model.timestep > 0.0 and math.isfinite(model.timestep)):
        report.add(
            "ir-nonpositive-timestep",
            SEVERITY_ERROR,
            f"timestep {model.timestep!r} is unusable for discretisation",
            file=file,
        )
    return report
