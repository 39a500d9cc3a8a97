"""Netlist extraction: from a parsed Verilog-AMS module to a :class:`Circuit`.

The acquisition step of the abstraction methodology (paper Section IV.A)
"retrieves information concerning the topology of the electrical network"
from the set of dipole equations.  This module performs that retrieval: it
maps every contribution statement of a conservative analog block onto a typed
network component connected between two nodes, producing a
:class:`repro.network.circuit.Circuit` whose dipole equations are exactly the
parsed contribution statements (with parameters substituted).

Input ports of the module become independent voltage sources driven by
external stimuli of the same name — the analog input signals ``U`` of the
paper's problem statement.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import EvaluationError, VamsError
from ..expr.ast import (
    BinaryOp,
    Constant,
    Derivative,
    Expr,
    Integral,
    UnaryOp,
    Variable,
    substitute,
    transform,
)
from ..expr.equation import DIPOLE, Equation
from ..expr.evaluate import evaluate
from ..expr.simplify import constant_value, simplify
from ..network.circuit import Circuit
from ..network.components import (
    VCCS,
    VCVS,
    Capacitor,
    Component,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from .ast import (
    FLOW,
    INPUT,
    POTENTIAL,
    AccessRef,
    AnalogStatement,
    Block,
    Contribution,
    IfStatement,
    VamsModule,
)
from .classify import classify_module

DEFAULT_GROUND_NAMES = ("gnd", "ground", "vss", "0")


class NetlistError(VamsError):
    """A contribution statement could not be mapped onto a network component."""


@dataclass
class ResolvedBranch:
    """A contribution target resolved to a pair of nodes and a branch name."""

    name: str
    positive: str
    negative: str


def find_ground(module: VamsModule) -> str:
    """Return the name of the reference node of ``module``.

    Explicit ``ground`` declarations win; otherwise a conventionally named net
    (``gnd``, ``ground``, ``vss``) is used; otherwise a ``gnd`` node is
    implied (single-argument access functions reference it implicitly).
    """
    if module.grounds:
        return sorted(module.grounds)[0]
    nets = {name.lower(): name for name in module.electrical_nets()}
    for candidate in DEFAULT_GROUND_NAMES:
        if candidate in nets:
            return nets[candidate]
    for port in module.ports:
        if port.name.lower() in DEFAULT_GROUND_NAMES:
            return port.name
    return "gnd"


class NetlistBuilder:
    """Builds a :class:`Circuit` from a conservative Verilog-AMS module."""

    def __init__(
        self, module: VamsModule, overrides: "dict[str, float] | None" = None
    ) -> None:
        self.module = module
        self.ground = find_ground(module)
        self.parameters = module.parameter_values()
        if overrides:
            unknown = set(overrides) - set(self.parameters)
            if unknown:
                raise NetlistError(
                    f"module {module.name!r} declares no parameter called "
                    f"{', '.join(sorted(unknown))}"
                )
            self.parameters.update(overrides)
        self.circuit = Circuit(module.name, ground=self.ground)
        self._anonymous_count = 0

    # -- public API ----------------------------------------------------------------
    def build(self, drive_inputs: bool = True) -> Circuit:
        """Build the circuit; optionally add stimulus sources on input ports."""
        classification = classify_module(self.module)
        if not classification.is_conservative:
            raise NetlistError(
                f"module {self.module.name!r} is a signal-flow description; "
                "use repro.core.signalflow to convert it directly"
            )
        if drive_inputs:
            self._add_input_sources()
        for contribution in self.active_contributions():
            self._add_component(contribution)
        self.circuit.validate()
        return self.circuit

    def active_contributions(self) -> list[Contribution]:
        """Contribution statements with parameter-constant conditionals folded.

        ``if``/``else`` statements whose conditions only involve parameters
        (and literals) select a single active arm at elaboration time —
        exactly one topology is built per parameter point, so a conditional
        gain stage contributes one component, not both alternatives.
        Conditions that do not fold to a constant (they read ``V``/``I``
        quantities or undeclared names) are rejected: a conservative network
        has no state-dependent topology.
        """
        contributions: list[Contribution] = []
        self._collect_active(self.module.analog, contributions)
        return contributions

    def _collect_active(
        self, statements: list[AnalogStatement], into: list[Contribution]
    ) -> None:
        for statement in statements:
            if isinstance(statement, Block):
                self._collect_active(statement.statements, into)
            elif isinstance(statement, IfStatement):
                arm = (
                    statement.then_branch
                    if self._fold_condition(statement.condition)
                    else statement.else_branch
                )
                self._collect_active(arm, into)
            elif isinstance(statement, Contribution):
                into.append(statement)

    def _fold_condition(self, condition: Expr) -> bool:
        try:
            value = evaluate(condition, self.parameters)
        except EvaluationError as exc:
            raise NetlistError(
                f"the conditional {condition} of module {self.module.name!r} "
                f"does not fold to a constant under its parameters ({exc}); "
                "conservative conditionals may only test parameters"
            ) from exc
        return value != 0.0

    # -- helpers --------------------------------------------------------------------
    def _add_input_sources(self) -> None:
        for port in self.module.ports:
            if port.direction != INPUT:
                continue
            if port.name == self.ground:
                continue
            self.circuit.add_voltage_source(
                port.name,
                self.ground,
                input_signal=port.name,
                name=f"Vsrc_{port.name}",
            )

    def resolve_target(self, access: AccessRef) -> ResolvedBranch:
        """Resolve a contribution target to its nodes and branch name.

        An access without a declared branch gets a fresh anonymous name, so
        resolve each contribution once, in statement order.
        """
        if access.branch is not None:
            declared = self.module.branch_by_name(access.branch)
            if declared is not None:
                return ResolvedBranch(declared.name, declared.positive, declared.negative)
        positive = access.positive
        negative = access.negative
        if positive is None:
            raise NetlistError("contribution target without a net")
        if negative is None:
            negative = self.ground
        self._anonymous_count += 1
        name = f"b{self._anonymous_count}_{positive}_{negative}"
        return ResolvedBranch(name, positive, negative)

    def substitute_names(self, expression: Expr, branch: ResolvedBranch) -> Expr:
        """Substitute parameters and normalise access-function variable names."""
        mapping = {name: Constant(value) for name, value in self.parameters.items()}
        expression = substitute(expression, mapping)

        def visit(node: Expr) -> Expr:
            if isinstance(node, Variable):
                return self._normalise_variable(node, branch)
            return node

        return simplify(transform(expression, visit))

    def _normalise_variable(self, node: Variable, branch: ResolvedBranch) -> Expr:
        name = node.name
        if name.startswith("V(") or name.startswith("I("):
            kind = name[0]
            arguments = name[2:-1].split(",")
            arguments = [argument.strip() for argument in arguments]
            if kind == "V":
                return self._normalise_potential(arguments, branch)
            return self._normalise_flow(arguments, branch)
        return node

    def _normalise_potential(self, arguments: list[str], branch: ResolvedBranch) -> Expr:
        if len(arguments) == 1:
            name = arguments[0]
            declared = self.module.branch_by_name(name)
            if declared is not None:
                return self._potential_difference(declared.positive, declared.negative)
            return self._potential_difference(name, self.ground)
        positive, negative = arguments
        return self._potential_difference(positive, negative)

    def _potential_difference(self, positive: str, negative: str) -> Expr:
        def potential(net: str) -> Expr:
            if net == self.ground:
                return Constant(0.0)
            return Variable(f"V({net})")

        return simplify(BinaryOp("-", potential(positive), potential(negative)))

    def _normalise_flow(self, arguments: list[str], branch: ResolvedBranch) -> Expr:
        if len(arguments) == 1:
            name = arguments[0]
            declared = self.module.branch_by_name(name)
            if declared is not None:
                return Variable(f"I({declared.name})")
            # Flow through the branch currently being defined.
            return Variable(f"I({branch.name})")
        positive, negative = arguments
        if branch.positive == positive and branch.negative == negative:
            return Variable(f"I({branch.name})")
        raise NetlistError(
            f"cannot resolve flow access I({positive},{negative}); declare a "
            "named branch for it"
        )

    # -- component recognition ---------------------------------------------------------
    def _add_component(self, contribution: Contribution) -> None:
        branch = self.resolve_target(contribution.target)
        expression = self.substitute_names(contribution.expression, branch)
        kind = contribution.target.kind
        recognised = self.recognise(kind, branch, expression)
        if recognised is None:
            raise NetlistError(
                f"cannot recognise the {'potential' if kind == POTENTIAL else 'flow'} "
                f"contribution on branch {branch.name!r}: {expression}"
            )
        component_class, arguments = recognised
        try:
            component = component_class(**arguments)
        except ValueError as error:
            raise NetlistError(
                f"the {component_class.__name__.lower()} law {expression} on branch "
                f"{branch.name!r} is not physical: {error}"
            ) from error
        self.circuit.add(component, branch.positive, branch.negative, name=branch.name)

    def recognise(
        self, kind: str, branch: ResolvedBranch, expression: Expr
    ) -> "tuple[type[Component], dict[str, object]] | None":
        """Map a substituted contribution onto a component class and its arguments.

        ``expression`` is the right-hand side after :meth:`substitute_names`.
        The component is not constructed, so a non-physical value (a
        negative resistance) is returned rather than raised; ``None`` means
        no component law matches.
        """
        own_current = Variable(f"I({branch.name})")
        own_voltage = self._potential_difference(branch.positive, branch.negative)
        if kind == POTENTIAL:
            factor = _linear_factor(expression, own_current.name)
            if factor is not None:
                return Resistor, {"resistance": factor}
            factor = _operator_factor(expression, own_current, Derivative)
            if factor is not None:
                return Inductor, {"inductance": factor}
            factor = _operator_factor(expression, own_current, Integral)
            if factor is not None and factor != 0.0:
                # V = (1/C) * idt(I): the integral form of the capacitor law.
                return Capacitor, {"capacitance": 1.0 / factor}
            source, controlled, gain_name = VoltageSource, VCVS, "gain"
        elif kind == FLOW:
            factor = _operator_factor(expression, own_voltage, Derivative)
            if factor is not None:
                return Capacitor, {"capacitance": factor}
            factor = _operator_factor(expression, own_voltage, Integral)
            if factor is not None and factor != 0.0:
                # I = (1/L) * idt(V): the integral form of the inductor law.
                return Inductor, {"inductance": 1.0 / factor}
            conductance = _conductance_factor(expression, own_voltage)
            if conductance is not None:
                return Resistor, {"resistance": 1.0 / conductance}
            source, controlled, gain_name = CurrentSource, VCCS, "transconductance"
        else:
            raise NetlistError(f"unknown access kind {kind!r}")
        value = constant_value(expression)
        if value is not None:
            return source, {"dc_value": value}
        if isinstance(expression, Variable):
            port = self.module.port(expression.name)
            if port is not None and port.direction == INPUT:
                return source, {"input_signal": expression.name}
        gain, control = _controlled_source(expression)
        if gain is not None:
            return controlled, {
                gain_name: gain,
                "control_positive": control[0],
                "control_negative": control[1],
            }
        return None


# -- expression pattern helpers --------------------------------------------------------
def _linear_factor(expression: Expr, variable_name: str) -> float | None:
    """Return ``k`` when ``expression == k * Variable(variable_name)``."""
    from ..expr.linear import linear_form

    try:
        form = linear_form(expression, {variable_name})
    except Exception:  # pragma: no cover - non-linear contribution
        return None
    remainder = constant_value(form.remainder)
    if remainder not in (0.0,):
        return None
    coefficient = constant_value(form.coefficient(variable_name))
    if coefficient is None or coefficient == 0.0:
        return None
    return coefficient


def _operator_factor(expression: Expr, operand: Expr, node_type: type) -> float | None:
    """Return ``k`` when ``expression == k * op(operand)``, else ``None``.

    ``op`` is ``ddt`` (:class:`Derivative`) or ``idt`` (:class:`Integral`,
    with no or a zero initial value); the scaling may be ``k*x``, ``x*k``,
    ``x/k`` or ``-x``.
    """
    expression = simplify(expression)
    if isinstance(expression, node_type):
        if node_type is Integral and not _zero_initial(expression):
            return None
        if simplify(expression.operand) == simplify(operand):
            return 1.0
        return None
    if isinstance(expression, UnaryOp) and expression.op == "-":
        inner = _operator_factor(expression.operand, operand, node_type)
        return None if inner is None else -inner
    if isinstance(expression, BinaryOp) and expression.op == "*":
        left_value = constant_value(expression.lhs)
        right_value = constant_value(expression.rhs)
        if left_value is not None:
            inner = _operator_factor(expression.rhs, operand, node_type)
            return None if inner is None else left_value * inner
        if right_value is not None:
            inner = _operator_factor(expression.lhs, operand, node_type)
            return None if inner is None else right_value * inner
    if isinstance(expression, BinaryOp) and expression.op == "/":
        divisor = constant_value(expression.rhs)
        if divisor not in (None, 0.0):
            inner = _operator_factor(expression.lhs, operand, node_type)
            return None if inner is None else inner / divisor
    return None


def _zero_initial(integral: Integral) -> bool:
    """True when the ``idt`` call carries no (or an explicitly zero) initial value."""
    if integral.initial is None:
        return True
    return constant_value(simplify(integral.initial)) == 0.0


def _conductance_factor(expression: Expr, own_voltage: Expr) -> float | None:
    """Return ``g`` when ``expression == g * (V(p) - V(n))`` of the same branch."""
    voltage_variables = own_voltage.variables()
    if not voltage_variables:
        return None
    from ..expr.linear import linear_form

    try:
        form = linear_form(expression, voltage_variables)
    except Exception:  # pragma: no cover - non-linear contribution
        return None
    if constant_value(form.remainder) != 0.0:
        return None
    own_form = linear_form(own_voltage, voltage_variables)
    factors: set[float] = set()
    for name in voltage_variables:
        own_coefficient = constant_value(own_form.coefficient(name))
        coefficient = constant_value(form.coefficient(name))
        if own_coefficient in (None, 0.0) or coefficient is None:
            return None
        factors.add(coefficient / own_coefficient)
    if len(factors) == 1:
        factor = factors.pop()
        return factor if factor != 0.0 else None
    return None


def _controlled_source(expression: Expr) -> tuple[float | None, tuple[str, str]]:
    """Match ``k * (V(a) - V(b))`` (or ``k * V(a)``) and return gain and nodes."""
    expression = simplify(expression)
    sign = 1.0
    if isinstance(expression, UnaryOp) and expression.op == "-":
        sign = -1.0
        expression = expression.operand
    if not (isinstance(expression, BinaryOp) and expression.op == "*"):
        # A bare potential difference is a unit-gain controlled source.
        nodes = _potential_nodes(expression)
        if nodes is not None:
            return sign, nodes
        return None, ("", "")
    left_value = constant_value(expression.lhs)
    right_value = constant_value(expression.rhs)
    if left_value is not None:
        nodes = _potential_nodes(expression.rhs)
        if nodes is not None:
            return sign * left_value, nodes
    if right_value is not None:
        nodes = _potential_nodes(expression.lhs)
        if nodes is not None:
            return sign * right_value, nodes
    return None, ("", "")


def _potential_nodes(expression: Expr) -> tuple[str, str] | None:
    """Extract ``(positive, negative)`` from ``V(a) - V(b)``, ``V(a)`` or ``-V(b)``."""
    expression = simplify(expression)
    if isinstance(expression, Variable) and expression.name.startswith("V("):
        return expression.name[2:-1], "gnd"
    if isinstance(expression, UnaryOp) and expression.op == "-":
        inner = _potential_nodes(expression.operand)
        if inner is not None:
            return inner[1], inner[0]
        return None
    if isinstance(expression, BinaryOp) and expression.op == "-":
        left = expression.lhs
        right = expression.rhs
        left_name = left.name[2:-1] if isinstance(left, Variable) and left.name.startswith("V(") else None
        right_name = right.name[2:-1] if isinstance(right, Variable) and right.name.startswith("V(") else None
        if left_name and right_name:
            return left_name, right_name
        if left_name and constant_value(right) == 0.0:
            return left_name, "gnd"
        if right_name and constant_value(left) == 0.0:
            return "gnd", right_name
    return None


def to_circuit(
    module: VamsModule,
    drive_inputs: bool = True,
    overrides: "dict[str, float] | None" = None,
) -> Circuit:
    """Convert a conservative Verilog-AMS module into a typed circuit netlist.

    ``overrides`` re-elaborates the module with different ``parameter real``
    values (sweeps and fault campaigns over parsed netlists rely on this);
    names absent from the module raise :class:`NetlistError`.
    """
    return NetlistBuilder(module, overrides=overrides).build(drive_inputs=drive_inputs)


def extract_dipole_equations(module: VamsModule) -> list[Equation]:
    """Return the contribution statements as normalised dipole equations.

    Each equation is expressed over node potentials ``V(node)`` and branch
    flows ``I(branch)``, with parameters substituted by their values.  This is
    the exact input format of the acquisition step.
    """
    builder = NetlistBuilder(module)
    equations: list[Equation] = []
    for contribution in builder.active_contributions():
        branch = builder.resolve_target(contribution.target)
        rhs = builder.substitute_names(contribution.expression, branch)
        if contribution.target.kind == POTENTIAL:
            lhs = builder._potential_difference(branch.positive, branch.negative)
        else:
            lhs = Variable(f"I({branch.name})")
        equations.append(Equation(lhs, rhs, kind=DIPOLE, name=f"dipole:{branch.name}"))
    return equations
