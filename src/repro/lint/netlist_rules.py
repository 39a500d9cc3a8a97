"""Layer 1: the netlist semantic linter.

Static checks over Verilog-AMS modules (and, at a lower level, typed
:class:`~repro.network.circuit.Circuit` objects) that catch ill-posed
descriptions *before* abstraction and simulation pay for them:

* ``floating-node`` / ``ground-unreachable`` — dangling or disconnected
  topology over the conservative component graph;
* ``vsource-loop`` / ``isource-cutset`` / ``zero-value`` — singular MNA
  systems (voltage-source loops, all-current-source nodes, zero-valued
  component laws) detected before the solver sees them;
* ``nonphysical-value`` / ``suspicious-magnitude`` — negative R/C/L and
  magnitudes that force degenerate timesteps;
* ``dead-arm`` / ``unfoldable-condition`` — conditional arms that can never
  execute (literal-constant conditions) and conservative conditionals that
  do not fold at elaboration time (the folding rule of
  :meth:`NetlistBuilder.active_contributions`, reported instead of raised);
* ``unused-parameter`` / ``unused-net`` / ``unused-branch`` /
  ``unused-variable`` — declarations nothing reads;
* ``mixed-description`` — the :mod:`repro.vams.classify` MIXED advisory.

Every diagnostic carries the 1-based line/column recorded by the parser.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import EvaluationError, VamsError
from ..expr.ast import (
    Access,
    BinaryOp,
    Constant,
    Derivative,
    Expr,
    Integral,
    Variable,
    substitute,
)
from ..expr.evaluate import evaluate
from ..expr.simplify import constant_value, simplify
from ..network.circuit import Circuit
from ..network.components import (
    VCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from ..vams.ast import (
    INPUT,
    POTENTIAL,
    AnalogStatement,
    Block,
    Contribution,
    IfStatement,
    VamsModule,
)
from ..vams.classify import MIXED, classify_module
from ..vams.netlist import NetlistBuilder
from ..vams.parser import parse_source
from .diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    LintReport,
)

#: The value attribute each R/C/L value rule reads, by component class, and
#: its plausibility band (outside -> warning).  Values beyond these force
#: degenerate timesteps or are almost certainly unit mistakes (a farad-sized
#: capacitor, a tera-ohm resistor).
VALUE_BANDS = {
    Resistor: ("resistance", 1e-3, 1e9),
    Capacitor: ("capacitance", 1e-15, 1e-1),
    Inductor: ("inductance", 1e-9, 1e2),
}

#: Component classes whose branch pins node voltages (vsource-loop analysis).
_VOLTAGE_DEFINED = (VoltageSource, VCVS)

#: Component classes that force a branch current (isource-cutset analysis).
_CURRENT_DEFINED = (CurrentSource, VCCS)


@dataclass(slots=True)
class _Edge:
    """One conservative component (or unrecognised contribution) as a graph edge."""

    positive: str
    negative: str
    #: The component class (``None`` when unrecognised) and its arguments.
    kind: "type | None"
    arguments: dict
    line: int
    column: int
    label: str


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------
def lint_source(source: str, file: str = "<memory>") -> LintReport:
    """Lint Verilog-AMS source text (every module it defines)."""
    report = LintReport()
    try:
        modules = parse_source(source)
    except VamsError as error:
        report.add(
            "parse-error",
            SEVERITY_ERROR,
            str(error),
            file=file,
            line=getattr(error, "line", 0),
            column=getattr(error, "column", 0),
        )
        return report
    for module in modules:
        report.extend(lint_module(module, file=file))
    return report


def lint_module(module: VamsModule, file: str = "<memory>") -> LintReport:
    """Lint a parsed module: declarations, conditionals and (when the module
    is conservative) the component graph."""
    report = LintReport()
    classification = classify_module(module)
    if classification.category == MIXED:
        statement = (
            classification.signal_flow_statements[0]
            if classification.signal_flow_statements
            else None
        )
        report.add(
            "mixed-description",
            SEVERITY_INFO,
            f"module {module.name!r} mixes conservative and signal-flow "
            "contributions; the whole module is abstracted as conservative",
            file=file,
            line=getattr(statement, "line", 0),
            column=getattr(statement, "column", 0),
            hint="split the signal-flow relation into its own module",
        )
    _lint_unused(module, report, file)
    active = _collect_active(
        module, module.analog, report, file,
        conservative=classification.is_conservative,
    )
    if classification.is_conservative:
        _lint_topology(module, active, report, file)
    return report


def lint_netlist(netlist) -> LintReport:
    """Lint a generated :class:`~repro.zoo.generate.ZooNetlist` (via its source)."""
    from ..zoo.generate import render

    return lint_source(render(netlist), file=f"<zoo:{netlist.name}>")


def lint_circuit(circuit: Circuit, file: str = "<circuit>") -> LintReport:
    """Graph-level lint of an already-built circuit (no source positions).

    This is the entry point of the fault-campaign strict gate: an injected
    fault that leaves the circuit topologically singular is reported here
    instead of crashing inside the solver.
    """
    edges = []
    sensed: set[str] = set()
    for branch in circuit:
        component = branch.component
        for control in (
            getattr(component, "control_positive", None),
            getattr(component, "control_negative", None),
        ):
            if control:
                sensed.add(control)
        edges.append(
            _Edge(
                branch.positive,
                branch.negative,
                type(component),
                vars(component),
                0,
                0,
                branch.name,
            )
        )
    report = LintReport()
    _lint_values(edges, report, file)
    _lint_graph(
        edges,
        ground=circuit.ground,
        exempt=frozenset(sensed),
        positions={},
        report=report,
        file=file,
    )
    return report


# ---------------------------------------------------------------------------
# Conditionals: elaboration-time folding, dead arms
# ---------------------------------------------------------------------------
def _collect_active(
    module: VamsModule,
    statements: "list[AnalogStatement]",
    report: LintReport,
    file: str,
    conservative: bool,
) -> "list[Contribution]":
    """Collect the elaboration-time active contributions, flagging dead arms.

    Mirrors :meth:`NetlistBuilder.active_contributions`, but tolerantly: a
    condition that does not fold is reported as a diagnostic (for
    conservative modules, where state-dependent topology is an error)
    rather than raised.
    """
    parameters = module.parameter_values()
    active: list[Contribution] = []

    def walk(statements: "list[AnalogStatement]") -> None:
        for statement in statements:
            if isinstance(statement, Block):
                walk(statement.statements)
            elif isinstance(statement, IfStatement):
                walk_if(statement)
            elif isinstance(statement, Contribution):
                active.append(statement)

    def walk_if(statement: IfStatement) -> None:
        condition = statement.condition
        try:
            literal = evaluate(condition, {})
        except EvaluationError:
            literal = None
        if literal is not None:
            taken, dead = (
                ("then", "else") if literal != 0.0 else ("else", "then")
            )
            report.add(
                "dead-arm",
                SEVERITY_WARNING,
                f"condition {condition} is always "
                f"{'true' if literal != 0.0 else 'false'}; "
                f"the {dead} arm never executes",
                file=file,
                line=statement.line,
                column=statement.column,
                hint="remove the conditional or make the condition test a parameter",
            )
            walk(statement.then_branch if literal != 0.0 else statement.else_branch)
            return
        try:
            value = evaluate(condition, parameters)
        except EvaluationError as error:
            if conservative:
                report.add(
                    "unfoldable-condition",
                    SEVERITY_ERROR,
                    f"the conditional {condition} does not fold to a constant "
                    f"under the module parameters ({error})",
                    file=file,
                    line=statement.line,
                    column=statement.column,
                    hint="conservative conditionals may only test parameters",
                )
            # Analyse both arms: we cannot tell which one is active.
            walk(statement.then_branch)
            walk(statement.else_branch)
            return
        walk(statement.then_branch if value != 0.0 else statement.else_branch)

    walk(statements)
    return active


# ---------------------------------------------------------------------------
# Unused declarations
# ---------------------------------------------------------------------------
def _access_nets(name: str) -> "list[str]":
    """The net/branch argument names of a canonical access name ``V(a,b)``."""
    return [part.strip() for part in name[2:-1].split(",")]


def _lint_unused(module: VamsModule, report: LintReport, file: str) -> None:
    read_names: set[str] = set()
    access_args: set[str] = set()

    def scan_expression(expression: Expr) -> None:
        for node in expression.walk():
            if isinstance(node, Access):
                access_args.update(_access_nets(node.name))
            elif isinstance(node, Variable):
                read_names.add(node.name)

    for statement in module.iter_statements():
        if isinstance(statement, Contribution):
            scan_expression(statement.expression)
            target = statement.target
            for part in (target.positive, target.negative, target.branch):
                if part:
                    access_args.add(part)
        elif isinstance(statement, IfStatement):
            scan_expression(statement.condition)
        elif hasattr(statement, "expression"):
            scan_expression(statement.expression)

    for parameter in module.parameters:
        used = parameter.name in read_names or any(
            parameter.name in getattr(other, "uses", ())
            for other in module.parameters
            if other is not parameter
        )
        if not used:
            report.add(
                "unused-parameter",
                SEVERITY_WARNING,
                f"parameter {parameter.name!r} is never read",
                file=file,
                line=parameter.line,
                column=parameter.column,
                hint="delete the declaration or wire the parameter in",
            )

    branch_nets = {
        net for branch in module.branches for net in (branch.positive, branch.negative)
    }
    port_names = set(module.port_names())
    for branch in module.branches:
        if branch.name not in access_args:
            report.add(
                "unused-branch",
                SEVERITY_WARNING,
                f"branch {branch.name!r} is declared but never accessed",
                file=file,
                line=branch.line,
                column=branch.column,
            )
    for net in module.electrical_nets():
        if net in port_names or net in module.grounds:
            continue
        if net in access_args or net in branch_nets:
            continue
        line, column = module.declaration_positions.get(net, (0, 0))
        report.add(
            "unused-net",
            SEVERITY_WARNING,
            f"net {net!r} is declared but never connected",
            file=file,
            line=line,
            column=column,
        )
    for variable in module.real_variables:
        if variable in read_names:
            continue
        line, column = module.declaration_positions.get(variable, (0, 0))
        report.add(
            "unused-variable",
            SEVERITY_WARNING,
            f"variable {variable!r} is never read",
            file=file,
            line=line,
            column=column,
        )


# ---------------------------------------------------------------------------
# Component recognition (value rules) and graph construction
# ---------------------------------------------------------------------------
def _zero_scale(expression: Expr) -> "str | None":
    """Detect a component law collapsed by a zero factor.

    Run *before* simplification (which would fold ``0 * I(br)`` into plain
    ``0`` and lose the evidence).  Returns a description or ``None``.
    """
    for node in expression.walk():
        if not isinstance(node, BinaryOp):
            continue
        if node.op == "/":
            divisor = constant_value(simplify(node.rhs))
            if divisor == 0.0:
                return "division by zero (an infinite conductance/short)"
        if node.op == "*":
            for value_side, other in ((node.lhs, node.rhs), (node.rhs, node.lhs)):
                if constant_value(simplify(value_side)) != 0.0:
                    continue
                if any(
                    isinstance(inner, (Access, Derivative, Integral))
                    for inner in other.walk()
                ):
                    return "a zero factor collapses the component law to a short"
    return None


def _lint_topology(
    module: VamsModule,
    active: "list[Contribution]",
    report: LintReport,
    file: str,
) -> None:
    builder = NetlistBuilder(module)
    edges: list[_Edge] = []

    # Implicit stimulus sources on input ports (NetlistBuilder adds the same).
    for port in module.ports:
        if port.direction != INPUT or port.name == builder.ground:
            continue
        edges.append(
            _Edge(
                port.name,
                builder.ground,
                VoltageSource,
                {},
                port.line,
                port.column,
                f"Vsrc_{port.name}",
            )
        )

    def unrecognised(contribution: Contribution, message: str, hint: str = "") -> None:
        report.add(
            "unrecognised-contribution",
            SEVERITY_ERROR,
            message,
            file=file,
            line=contribution.line,
            column=contribution.column,
            hint=hint,
        )

    parameter_constants = {
        name: Constant(value) for name, value in builder.parameters.items()
    }
    resolved: list = []
    for contribution in active:
        try:
            branch = builder.resolve_target(contribution.target)
        except VamsError as error:
            unrecognised(contribution, str(error))
            continue
        resolved.append((contribution, branch))

    # Nets whose potential *another* branch senses (controlled-source inputs)
    # are legitimate high-impedance probe points, not floating nodes.  Reads
    # of a branch's own terminal voltage (``I(a,b) <+ V(a,b)/R``) do not
    # count as sensing.
    sensed: set[str] = set()
    for contribution, branch in resolved:
        own = {branch.positive, branch.negative, builder.ground}
        for node in contribution.expression.walk():
            if isinstance(node, Access) and node.kind == POTENTIAL:
                nets: set[str] = set()
                for argument in _access_nets(node.name):
                    declared = module.branch_by_name(argument)
                    if declared is not None:
                        nets.update((declared.positive, declared.negative))
                    else:
                        nets.add(argument)
                if not nets <= own:
                    sensed.update(nets)

    for contribution, branch in resolved:
        edge = _Edge(
            branch.positive,
            branch.negative,
            None,
            {},
            contribution.line,
            contribution.column,
            branch.name,
        )
        edges.append(edge)
        raw = substitute(contribution.expression, parameter_constants)
        zero = _zero_scale(raw)
        if zero is not None:
            report.add(
                "zero-value",
                SEVERITY_ERROR,
                f"the contribution on branch {branch.name!r} degenerates: {zero}",
                file=file,
                line=contribution.line,
                column=contribution.column,
                hint="a zero-valued component makes the MNA system singular",
            )
            continue
        try:
            expression = builder.substitute_names(contribution.expression, branch)
            recognised = builder.recognise(
                contribution.target.kind, branch, expression
            )
        except VamsError as error:
            unrecognised(contribution, str(error))
            continue
        if recognised is None:
            unrecognised(
                contribution,
                f"cannot recognise the contribution on branch {branch.name!r} "
                "as a network component",
                hint="supported laws: R, C, L (incl. idt forms), V/I sources, VCVS, VCCS",
            )
            continue
        edge.kind, edge.arguments = recognised

    _lint_values(edges, report, file)
    _lint_graph(
        edges,
        ground=builder.ground,
        exempt=frozenset(module.port_names()) | frozenset(sensed),
        positions=module.declaration_positions,
        report=report,
        file=file,
    )


def _lint_values(edges: "list[_Edge]", report: LintReport, file: str) -> None:
    for edge in edges:
        if edge.kind not in VALUE_BANDS:
            continue
        attribute, low, high = VALUE_BANDS[edge.kind]
        value = edge.arguments[attribute]
        name = edge.kind.__name__.lower()
        if value <= 0.0:
            report.add(
                "nonphysical-value",
                SEVERITY_ERROR,
                f"{name} {edge.label!r} has non-positive value {value:g}",
                file=file,
                line=edge.line,
                column=edge.column,
                hint="R, C and L must be strictly positive",
            )
            continue
        if not (low <= value <= high):
            report.add(
                "suspicious-magnitude",
                SEVERITY_WARNING,
                f"{name} {edge.label!r} has value {value:g}, outside "
                f"the plausible band [{low:g}, {high:g}]",
                file=file,
                line=edge.line,
                column=edge.column,
                hint="extreme values force degenerate timesteps; check the units",
            )


def _lint_graph(
    edges: "list[_Edge]",
    ground: str,
    exempt: "frozenset[str]",
    positions: "dict[str, tuple[int, int]]",
    report: LintReport,
    file: str,
) -> None:
    """Topology rules over the component graph (shared by module and circuit lint)."""
    if not edges:
        return

    def node_position(node: str) -> "tuple[int, int]":
        if node in positions:
            return positions[node]
        for edge in edges:
            if node in (edge.positive, edge.negative):
                return edge.line, edge.column
        return 0, 0

    nodes: set[str] = {ground}
    degree: dict[str, int] = {}
    incident: dict[str, list[_Edge]] = {}
    for edge in edges:
        for node in (edge.positive, edge.negative):
            nodes.add(node)
            degree[node] = degree.get(node, 0) + 1
            incident.setdefault(node, []).append(edge)

    # floating-node: a non-ground, non-port node with a single terminal.
    for node in sorted(nodes):
        if node == ground or node in exempt:
            continue
        if degree.get(node, 0) == 1:
            line, column = node_position(node)
            report.add(
                "floating-node",
                SEVERITY_ERROR,
                f"node {node!r} is floating: only one component terminal "
                "touches it",
                file=file,
                line=line,
                column=column,
                hint="every internal node needs at least two connections",
            )

    # ground-reachability: BFS over the full component graph.
    adjacency: dict[str, set[str]] = {}
    for edge in edges:
        adjacency.setdefault(edge.positive, set()).add(edge.negative)
        adjacency.setdefault(edge.negative, set()).add(edge.positive)
    reached = {ground}
    frontier = [ground]
    while frontier:
        current = frontier.pop()
        for neighbour in adjacency.get(current, ()):
            if neighbour not in reached:
                reached.add(neighbour)
                frontier.append(neighbour)
    for node in sorted(nodes - reached):
        if degree.get(node, 0) == 0:
            continue  # covered by unused-net
        line, column = node_position(node)
        report.add(
            "ground-unreachable",
            SEVERITY_ERROR,
            f"node {node!r} has no path to ground {ground!r}",
            file=file,
            line=line,
            column=column,
            hint="the nodal equations of a disconnected island are singular",
        )

    # vsource-loop: union-find over voltage-defined edges.
    parent: dict[str, str] = {}

    def find(node: str) -> str:
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for edge in edges:
        if edge.kind not in _VOLTAGE_DEFINED:
            continue
        root_p, root_n = find(edge.positive), find(edge.negative)
        if root_p == root_n:
            report.add(
                "vsource-loop",
                SEVERITY_ERROR,
                f"voltage source {edge.label!r} closes a loop of "
                "voltage-defined branches",
                file=file,
                line=edge.line,
                column=edge.column,
                hint="a loop of voltage sources over-constrains the node voltages",
            )
            continue
        parent[root_p] = root_n

    # isource-cutset: a node whose every incident branch forces its current.
    for node in sorted(nodes):
        if node == ground:
            continue
        branches = incident.get(node, [])
        if not branches:
            continue
        if all(edge.kind in _CURRENT_DEFINED for edge in branches):
            line, column = node_position(node)
            report.add(
                "isource-cutset",
                SEVERITY_ERROR,
                f"every branch at node {node!r} is a current source; KCL "
                "over-constrains the branch currents",
                file=file,
                line=line,
                column=column,
                hint="give the node a resistive or capacitive path",
            )
