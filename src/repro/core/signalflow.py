"""Signal-flow models: the output of the abstraction methodology.

A :class:`SignalFlowModel` is the executable, discrete-time form the paper
maps conservative descriptions onto: an ordered list of assignments computing
the quantities of interest from the inputs ``U`` and from state variables
(previous-step values ``X`` and integral accumulators), with no energy
conservation left to solve at run time.  It is the single intermediate
representation consumed by every code generator (C++, SystemC-DE,
SystemC-AMS/TDF and the executable Python backend).

The module also implements the *direct conversion* path of the paper's
Section III.A: Verilog-AMS descriptions that are already signal flow are
translated statement by statement, preserving their original order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from ..errors import AbstractionError
from ..expr.ast import Conditional, Constant, Expr, Previous, Variable, substitute, transform
from ..expr.discretize import Discretizer
from ..expr.evaluate import evaluate
from ..expr.simplify import simplify
from ..vams.ast import (
    INPUT,
    OUTPUT,
    Assignment as VamsAssignment,
    Block,
    Contribution,
    IfStatement,
    VamsModule,
)
from ..vams.classify import classify_module

#: Name bound to the absolute simulation time in generated models.
TIME_VARIABLE = "$abstime"


@dataclass
class Assignment:
    """One assignment ``target := expression`` of a signal-flow model."""

    target: str
    expression: Expr

    def __str__(self) -> str:
        return f"{self.target} = {self.expression}"


@dataclass
class SignalFlowModel:
    """A discrete-time signal-flow model executed at a fixed timestep.

    Attributes
    ----------
    name:
        Model identifier, used to name generated classes/modules.
    inputs:
        External stimulus names, in declaration order.
    outputs:
        Names of the quantities of interest (e.g. ``"V(out)"``).
    assignments:
        Ordered assignments evaluated once per timestep.
    state_variables:
        Names whose previous-step value (``prev(name)``) is referenced; their
        freshly computed value is latched at the end of every step.
    initial_state:
        Initial values ``X0`` of the state variables (missing entries are 0).
    timestep:
        The fixed execution timestep the model was generated for.
    source:
        Free-form description of how the model was obtained (for reports).
    """

    name: str
    inputs: list[str]
    outputs: list[str]
    assignments: list[Assignment]
    state_variables: list[str] = field(default_factory=list)
    initial_state: dict[str, float] = field(default_factory=dict)
    timestep: float = 1e-6
    source: str = "abstraction"

    # -- the contract -------------------------------------------------------------------
    def validate(self) -> None:
        """Check the model against the contract every backend assumes.

        A quantity may be assigned more than once per step; each assignment
        reads the latest value, as the direct conversion emits it.  Each
        assignment's expression is walked once, because every abstraction
        validates its model.

        Raises
        ------
        AbstractionError
            If the timestep is not finite and positive; if an assignment
            references a name that is neither an input, the time variable
            nor an assignment target, or holds a non-finite constant; if a
            state variable or an output is never computed; or if an initial
            state is not finite.
        """
        if not (math.isfinite(self.timestep) and self.timestep > 0.0):
            raise AbstractionError(
                f"timestep {self.timestep!r} is not finite and positive"
            )
        targets = {assignment.target for assignment in self.assignments}
        known = targets | set(self.inputs) | {TIME_VARIABLE}
        states: set[str] = set()
        for assignment in self.assignments:
            stack = [assignment.expression]
            while stack:
                node = stack.pop()
                if isinstance(node, Variable):
                    if node.name not in known:
                        raise AbstractionError(
                            f"assignment {assignment.target!r} references the "
                            f"unknown quantity {node.name!r}"
                        )
                elif isinstance(node, Previous):
                    states.add(node.name)
                elif isinstance(node, Constant):
                    if not math.isfinite(node.value):
                        raise AbstractionError(
                            f"assignment {assignment.target!r} contains the "
                            f"non-finite constant {node.value!r}"
                        )
                else:
                    stack.extend(node.children())
        for state in sorted(states):
            if state not in targets and state not in self.inputs:
                raise AbstractionError(
                    f"state variable {state!r} is referenced but never computed"
                )
        for output in self.outputs:
            if output not in targets and output not in self.inputs:
                raise AbstractionError(f"output {output!r} is never computed")
        for state, value in self.initial_state.items():
            if not math.isfinite(value):
                raise AbstractionError(
                    f"initial state of {state!r} is non-finite ({value!r})"
                )

    # -- constants ------------------------------------------------------------------------
    def constants(self) -> list[float]:
        """The value of every constant of the assignments, in pre-order."""
        return [
            node.value
            for assignment in self.assignments
            for node in assignment.expression.walk()
            if type(node) is Constant
        ]

    def with_constants(self, values, name: "str | None" = None) -> "SignalFlowModel":
        """This model with its constants replaced by ``values``, in the order
        of :meth:`constants`, and optionally renamed."""
        feed = iter(values)

        def visit(node: Expr) -> Expr:
            return Constant(next(feed)) if type(node) is Constant else node

        return replace(
            self,
            name=self.name if name is None else name,
            inputs=list(self.inputs),
            outputs=list(self.outputs),
            assignments=[
                Assignment(assignment.target, transform(assignment.expression, visit))
                for assignment in self.assignments
            ],
            state_variables=list(self.state_variables),
            initial_state=dict(self.initial_state),
        )

    # -- execution ------------------------------------------------------------------------
    def create_state(self) -> dict[str, float]:
        """Return a fresh state dictionary initialised to ``X0``."""
        state = {name: 0.0 for name in self.state_variables}
        for name, value in self.initial_state.items():
            state[name] = float(value)
        return state

    def step(
        self,
        inputs: Mapping[str, float],
        state: dict[str, float],
        time: float = 0.0,
    ) -> dict[str, float]:
        """Evaluate one timestep (interpreted).

        The returned dictionary holds every computed quantity; ``state`` is
        updated in place with the new previous-step values.  Code generated by
        :mod:`repro.core.codegen` performs exactly this computation without
        the interpretation overhead.
        """
        env: dict[str, float] = dict(inputs)
        env[TIME_VARIABLE] = time
        for assignment in self.assignments:
            env[assignment.target] = evaluate(
                assignment.expression, env, previous=state
            )
        for name in self.state_variables:
            if name in env:
                state[name] = env[name]
        return env

    def output_values(self, env: Mapping[str, float]) -> dict[str, float]:
        """Extract the output quantities from a step environment."""
        return {name: env[name] for name in self.outputs}

    def run(
        self,
        stimuli: Mapping[str, Callable[[float], float]],
        duration: float,
        record: list[str] | None = None,
    ) -> "SignalFlowTrace":
        """Run the model standalone (interpreted) and record waveforms.

        A ``duration`` that is not a whole number of timesteps raises a
        :class:`~repro.errors.SimulationError`.
        """
        # repro.sim imports this module, so import its leaf at call time.
        from ..sim.steps import resolve_steps

        record = record or list(self.outputs)
        steps = resolve_steps(duration, self.timestep)
        times = np.arange(1, steps + 1) * self.timestep
        traces = {name: np.zeros(steps) for name in record}
        state = self.create_state()
        for index, time in enumerate(times):
            inputs = {name: stimuli[name](time) for name in self.inputs}
            env = self.step(inputs, state, time)
            for name in record:
                traces[name][index] = env[name]
        return SignalFlowTrace(times, traces)

    # -- reporting -------------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable summary of the model (used by examples and reports)."""
        lines = [
            f"signal-flow model {self.name!r}",
            f"  inputs : {', '.join(self.inputs) or '(none)'}",
            f"  outputs: {', '.join(self.outputs)}",
            f"  states : {', '.join(self.state_variables) or '(none)'}",
            f"  dt     : {self.timestep:g} s",
            "  assignments:",
        ]
        lines.extend(f"    {assignment}" for assignment in self.assignments)
        return "\n".join(lines)


@dataclass
class SignalFlowTrace:
    """Waveforms recorded by :meth:`SignalFlowModel.run`."""

    times: np.ndarray
    values: dict[str, np.ndarray]

    def waveform(self, name: str) -> np.ndarray:
        """Return the samples recorded for ``name``."""
        return self.values[name]


# ---------------------------------------------------------------------------------
# Direct conversion of signal-flow Verilog-AMS descriptions (paper Section III.A)
# ---------------------------------------------------------------------------------
def _canonical_target(contribution: Contribution, ground: str) -> str:
    access = contribution.target
    if access.negative is None or access.negative == ground:
        return f"{access.kind}({access.positive})"
    return f"{access.kind}({access.positive},{access.negative})"


def _normalise_port_accesses(expression: Expr, module: VamsModule, ground: str) -> Expr:
    """Rewrite ``V(port)`` accesses of input ports into plain input variables."""
    mapping: dict[str, Expr] = {}
    for port in module.ports:
        if port.direction == INPUT:
            mapping[f"V({port.name})"] = Variable(port.name)
            mapping[f"V({port.name},{ground})"] = Variable(port.name)
    for name, value in module.parameter_values().items():
        mapping[name] = Constant(value)
    return substitute(expression, mapping)


def convert_signal_flow(module: VamsModule, timestep: float) -> SignalFlowModel:
    """Convert a signal-flow Verilog-AMS module into a :class:`SignalFlowModel`.

    The conversion preserves the original statement order (paper Section
    III.C: "writing the translated equations in the same order as their
    original counterparts appear").  ``if``/``else`` statements whose branches
    assign the same targets are converted into conditional expressions.
    """
    classification = classify_module(module)
    if classification.is_conservative and not classification.is_signal_flow:
        raise AbstractionError(
            f"module {module.name!r} is a conservative description; run the "
            "abstraction methodology instead of the direct conversion"
        )
    ground = "gnd"
    discretizer = Discretizer(timestep)
    assignments: list[Assignment] = []

    def convert_statement(statement) -> list[Assignment]:
        if isinstance(statement, Contribution):
            target = _canonical_target(statement, ground)
            expression = _normalise_port_accesses(statement.expression, module, ground)
            result = discretizer.discretize(expression)
            converted = [
                Assignment(name, update) for name, update in result.integrator_updates.items()
            ]
            converted.append(Assignment(target, simplify(result.expression)))
            return converted
        if isinstance(statement, VamsAssignment):
            expression = _normalise_port_accesses(statement.expression, module, ground)
            result = discretizer.discretize(expression)
            converted = [
                Assignment(name, update) for name, update in result.integrator_updates.items()
            ]
            converted.append(Assignment(statement.name, simplify(result.expression)))
            return converted
        if isinstance(statement, Block):
            converted = []
            for inner in statement.statements:
                converted.extend(convert_statement(inner))
            return converted
        if isinstance(statement, IfStatement):
            return _convert_conditional(statement)
        raise AbstractionError(
            f"unsupported analog statement {type(statement).__name__} in "
            "signal-flow conversion"
        )

    def _convert_conditional(statement: IfStatement) -> list[Assignment]:
        condition = _normalise_port_accesses(statement.condition, module, ground)
        then_assignments = []
        for inner in statement.then_branch:
            then_assignments.extend(convert_statement(inner))
        else_assignments = []
        for inner in statement.else_branch:
            else_assignments.extend(convert_statement(inner))
        then_map = {a.target: a.expression for a in then_assignments}
        else_map = {a.target: a.expression for a in else_assignments}
        converted: list[Assignment] = []
        for target in dict.fromkeys(list(then_map) + list(else_map)):
            then_expr = then_map.get(target, Variable(target))
            else_expr = else_map.get(target, Variable(target))
            converted.append(
                Assignment(target, simplify(Conditional(condition, then_expr, else_expr)))
            )
        return converted

    for statement in module.analog:
        assignments.extend(convert_statement(statement))

    inputs = [port.name for port in module.ports if port.direction == INPUT]
    outputs = [
        f"V({port.name})"
        for port in module.ports
        if port.direction == OUTPUT and any(a.target == f"V({port.name})" for a in assignments)
    ]
    if not outputs:
        outputs = [assignments[-1].target] if assignments else []

    states: set[str] = set()
    for assignment in assignments:
        states |= assignment.expression.previous_values()

    model = SignalFlowModel(
        name=module.name,
        inputs=inputs,
        outputs=outputs,
        assignments=assignments,
        state_variables=sorted(states),
        timestep=timestep,
        source="direct signal-flow conversion",
    )
    model.validate()
    return model
