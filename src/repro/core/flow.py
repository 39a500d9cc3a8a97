"""The complete abstraction flow (paper Figure 4).

:class:`AbstractionFlow` chains the four steps of the methodology —
acquisition, enrichment, assemble and the linear solve — and records the time
spent in each, which is what the abstraction-cost experiment reports (the
paper quotes 7.67 s to process the RC20 model, its largest benchmark with 22
nodes and 41 branches).

The flow also dispatches on the kind of description it is given: conservative
models go through the abstraction methodology, signal-flow models are
converted directly (Section III.A), mirroring the classification of Section
III.

:class:`AbstractionRecipe` records what one full flow chose, and replays it
on another circuit of the same topology when :func:`replay_skeleton`'s rule
proves the full flow would choose the same; a sweep abstracts each topology
once that way (:class:`repro.sweep.runner.RecipeTable`).  A
:class:`ReplayTape` is one such replay recorded as float operations and
guards (:mod:`repro.expr.tape`), which replays it on many circuits at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import AbstractionError, ReproError
from ..expr.ast import BinaryOp, Constant, Expr, Previous, UnaryOp, Variable, transform
from ..expr.discretize import Discretizer
from ..expr.equation import Equation
from ..expr.tape import Tape, Traced, plain
from ..obs.tracer import TRACER
from ..network.circuit import Circuit
from ..vams.ast import VamsModule
from ..vams.classify import classify_module
from ..vams.parser import parse_module
from .acquisition import AcquisitionResult, acquire
from .assemble import AssembledModel, Assembler, normalise_output
from .enrichment import EnrichmentResult, discretize_equation, enrich
from .linsolve import to_signal_flow
from .signalflow import SignalFlowModel, convert_signal_flow


@dataclass
class AbstractionReport:
    """Everything produced while abstracting one model."""

    model: SignalFlowModel
    acquisition: AcquisitionResult | None = None
    enrichment: EnrichmentResult | None = None
    assembled: AssembledModel | None = None
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        """Total processing time of the abstraction tool, in seconds."""
        return sum(self.timings.values())

    def summary(self) -> str:
        """One-paragraph human-readable description of the run."""
        lines = [f"abstraction of {self.model.name!r}"]
        if self.acquisition is not None:
            lines.append(
                f"  topology : |N| = {self.acquisition.node_count} nodes, "
                f"|B| = {self.acquisition.branch_count} branches"
            )
        if self.enrichment is not None:
            stats = self.enrichment.statistics()
            lines.append(
                f"  enriched : {stats['equations']} equations "
                f"({stats['kcl']} KCL, {stats['kvl']} KVL, {stats['solved']} solved forms)"
            )
        if self.assembled is not None:
            lines.append(
                f"  assembled: {self.assembled.cone_size} quantities in the cone, "
                f"{len(self.assembled.dropped_unknowns)} dropped"
            )
        lines.append(
            "  timings  : "
            + ", ".join(f"{step} {duration * 1e3:.2f} ms" for step, duration in self.timings.items())
        )
        lines.append(f"  total    : {self.total_time * 1e3:.2f} ms")
        return "\n".join(lines)


class AbstractionFlow:
    """End-to-end driver for the abstraction and conversion methodology.

    Parameters
    ----------
    timestep:
        The fixed timestep the generated models will execute at (the paper
        uses 50 ns for its experiments).
    """

    def __init__(self, timestep: float) -> None:
        if timestep <= 0.0:
            raise ValueError("timestep must be positive")
        self.timestep = float(timestep)

    # -- conservative path ------------------------------------------------------------
    def abstract(
        self,
        model: "Circuit | VamsModule | str",
        outputs: list[str] | str,
        name: str | None = None,
        initial_state: dict[str, float] | None = None,
    ) -> AbstractionReport:
        """Abstract a conservative description for the given outputs of interest."""
        if isinstance(outputs, str):
            outputs = [outputs]

        timings: dict[str, float] = {}

        start = time.perf_counter()
        acquisition = acquire(model)
        timings["acquisition"] = time.perf_counter() - start

        ground = acquisition.circuit.ground
        normalised = [normalise_output(output, ground) for output in outputs]

        start = time.perf_counter()
        enrichment = enrich(acquisition, self.timestep)
        timings["enrichment"] = time.perf_counter() - start

        start = time.perf_counter()
        assembled = Assembler(enrichment).assemble(normalised)
        timings["assemble"] = time.perf_counter() - start

        start = time.perf_counter()
        signal_flow = to_signal_flow(
            assembled,
            enrichment,
            name=name or acquisition.circuit.name,
            timestep=self.timestep,
            initial_state=initial_state,
        )
        timings["solve"] = time.perf_counter() - start

        if TRACER.enabled:
            TRACER.add("flow.abstractions", 1.0)
            end = time.perf_counter()
            offset = sum(timings.values())
            for step in ("acquisition", "enrichment", "assemble", "solve"):
                duration = timings[step]
                # Phases were timed back-to-back ending (approximately) now,
                # so their start times reconstruct from the accumulated tail.
                TRACER.complete(
                    f"flow.{step}", end - offset, duration, "flow",
                    model=name or getattr(model, "name", None) or "<source>",
                )
                offset -= duration

        return AbstractionReport(
            model=signal_flow,
            acquisition=acquisition,
            enrichment=enrichment,
            assembled=assembled,
            timings=timings,
        )

    # -- signal-flow path -----------------------------------------------------------------
    def convert(self, module: "VamsModule | str") -> SignalFlowModel:
        """Directly convert a signal-flow Verilog-AMS description."""
        if isinstance(module, str):
            module = parse_module(module)
        return convert_signal_flow(module, self.timestep)

    # -- dispatching -------------------------------------------------------------------------
    def process(
        self,
        model: "Circuit | VamsModule | str",
        outputs: list[str] | str | None = None,
        name: str | None = None,
    ) -> AbstractionReport:
        """Classify ``model`` and run the appropriate path.

        Conservative descriptions require ``outputs``; signal-flow
        descriptions are converted directly and ``outputs`` is ignored.
        """
        module: VamsModule | None = None
        if isinstance(model, str):
            module = parse_module(model)
        elif isinstance(model, VamsModule):
            module = model

        if module is not None and classify_module(module).is_signal_flow:
            start = time.perf_counter()
            converted = self.convert(module)
            conversion_time = time.perf_counter() - start
            if TRACER.enabled:
                TRACER.add("flow.conversions", 1.0)
                TRACER.complete(
                    "flow.conversion", start, conversion_time, "flow",
                    model=name or module.name,
                )
            return AbstractionReport(
                model=converted, timings={"conversion": conversion_time}
            )

        if outputs is None:
            raise AbstractionError(
                "conservative descriptions need at least one output of interest"
            )
        return self.abstract(module if module is not None else model, outputs, name=name)


#: The magnitudes of the nonzero constants :func:`replay_skeleton` admits,
#: and the most ``*``/``/`` nodes it admits above a node: a product of that
#: many admitted constants is a finite nonzero double.
REPLAY_SMALLEST = 2.0**-200
REPLAY_LARGEST = 2.0**200
REPLAY_MAX_FACTORS = 5


def replay_skeleton(equation: Equation) -> "tuple | None":
    """The skeleton of a discretised source equation, or ``None`` outside the replay rule.

    The skeleton is the equation's tree in pre-order with each constant's
    value blanked to whether it is zero.  :meth:`AbstractionRecipe.replay`
    replays a recipe on a circuit only when this function admits each of
    the circuit's parameter-dependent source equations (discretised dipole
    equations and integrator updates) with the skeleton it gave the
    recorded circuit's, so both circuits obey the rule:

    1. the equation uses only ``+``, ``-``, ``*``, ``/`` and negation; every
       ``*`` has a nonzero constant operand and every ``/`` a nonzero
       constant divisor;
    2. no quantity, input or previous value occurs twice in it;
    3. every constant is zero, or finite with a magnitude in
       [2^-200, 2^200], and no node lies under more than five ``*``/``/``
       nodes.

    Why the rule implies the full flow's choices.  The assembler reads, of
    each table entry, its names (defined variable, origin, equation name),
    its place in the table, and the sets of variables and of previous
    values on its right side: two tables equal in these give equal
    choices.  The Kirchhoff equations depend on the topology alone.  Equal
    skeletons give the equations as written equal names, sets and places.
    The table's other entries are each equation ``E`` solved for each of
    its unknowns ``t``; under the rule that solve succeeds and yields a
    right side with the variables of ``E`` but ``t`` and the previous values
    of ``E``, whatever the constants' values:

    * ``t`` occurs once (2), never in a divisor nor in a product of two
      non-constant factors (1), so it occurs linearly, and its coefficient
      is the product of the constants of the ``*``/``/`` nodes above it.
      With at most five factors in the window (3) it folds to a finite
      nonzero number: the solve succeeds.
    * The remainder is ``lhs - rhs`` with ``t`` replaced by zero.  The only
      simplifier rules that drop a subtree are ``0 * x``, ``x * 0``,
      ``0 / x`` and ``x - x``.  The subtrees off the path from ``t`` to the
      root are already simplified (the discretiser simplifies each side);
      on the path a ``*`` or ``/`` joins the ``t`` side to a nonzero
      constant, so no variable is dropped there, and ``x - x`` would need
      a leaf twice (2).  A fold whose result depends on the values (a sum
      that cancels, say) yields a constant and changes no set.
    * The solution divides the negated remainder by the nonzero
      coefficient, which keeps every leaf.

    Both circuits' tables therefore agree in all the assembler reads, so it
    makes the same choices.  The replay solves the circuit's own
    discretised equations for the recorded terms with
    :meth:`~repro.expr.equation.Equation.solved_for`, as enrichment would,
    and runs the same linear solve: the model is the full flow's.
    """
    tokens: list = []
    seen: set[tuple[bool, str]] = set()

    def admits(node: Expr, factors: int) -> bool:
        kind = type(node)
        if kind is Constant:
            value = node.value
            tokens.append("0" if value == 0.0 else "c")
            return value == 0.0 or REPLAY_SMALLEST <= abs(value) <= REPLAY_LARGEST
        if isinstance(node, (Variable, Previous)):
            leaf = (kind is Previous, node.name)
            if leaf in seen:
                return False
            seen.add(leaf)
            tokens.append(leaf)
            return True
        if kind is UnaryOp and node.op == "-":
            tokens.append("neg")
            return admits(node.operand, factors)
        if kind is not BinaryOp:
            return False
        op = node.op
        if op in ("*", "/"):
            factors += 1
            constants = (node.rhs,) if op == "/" else (node.lhs, node.rhs)
            if factors > REPLAY_MAX_FACTORS or not any(
                type(operand) is Constant and operand.value != 0.0
                for operand in constants
            ):
                return False
        elif op not in ("+", "-"):
            return False
        tokens.append(op)
        return admits(node.lhs, factors) and admits(node.rhs, factors)

    if admits(equation.lhs, 0) and admits(equation.rhs, 0):
        return tuple(tokens)
    return None


@dataclass(frozen=True)
class AbstractionRecipe:
    """What one full flow chose, replayable on circuits of its topology.

    :meth:`record` takes it from an :class:`AbstractionReport`.
    ``choices`` maps each quantity of ``order`` to its source equation's
    origin and the term the assembler solved it for
    (:attr:`AssembledModel.choices`); ``skeletons`` holds the
    :func:`replay_skeleton` of each parameter-dependent source equation by
    origin; ``fixed`` holds the resolutions solved from Kirchhoff
    equations, which depend on the topology alone.
    """

    timestep: float
    outputs: tuple[str, ...]
    order: tuple[str, ...]
    choices: dict[str, tuple[str, "str | None"]]
    skeletons: dict[str, "tuple | None"]
    fixed: dict[str, Expr]

    @classmethod
    def record(cls, report: AbstractionReport) -> "AbstractionRecipe":
        """The recipe of a full flow's report."""
        enrichment, assembled = report.enrichment, report.assembled
        written = {entry.origin: entry.equation for entry in enrichment.table if entry.term is None}
        dependent = [equation.origin for equation in report.acquisition.dipole_equations]
        dependent += [update.origin for update in enrichment.integrator_updates.values()]
        skeletons = {origin: replay_skeleton(written[origin]) for origin in dependent}
        return cls(
            timestep=enrichment.discretizer.timestep,
            outputs=tuple(assembled.outputs),
            order=tuple(assembled.order),
            choices=dict(assembled.choices),
            skeletons=skeletons,
            fixed={
                name: assembled.resolutions[name]
                for name in assembled.order
                if assembled.choices[name][0] not in skeletons
            },
        )

    def replay(
        self,
        model: "Circuit | VamsModule | str",
        name: str | None = None,
        tape: "Tape | None" = None,
    ) -> "SignalFlowModel | None":
        """The full flow's model of ``model``, or ``None`` outside the rule.

        ``model`` must have the recorded topology: the same branches,
        terminals, component kinds, control nodes and inputs.  Its circuit
        is acquired and its dipole equations are discretised; when each
        passes :func:`replay_skeleton` with the recorded skeleton, the
        recorded forms are solved and the linear solve runs as in
        :meth:`AbstractionFlow.abstract`.  A recipe whose own equations
        fail the rule replays nothing.  With a ``tape``, each constant of
        the acquired equations becomes one of its inputs, in the order of
        :func:`_acquired` (see :meth:`record_tape`).
        """
        if None in self.skeletons.values():
            return None
        acquisition = acquire(model)
        equations = acquisition.dipole_equations
        if tape is not None:
            equations = _traced(equations, tape)
        discretizer = Discretizer(self.timestep)
        sources: dict[str, Equation] = {}
        for equation in equations:
            flattened, updates = discretize_equation(equation, discretizer)
            for source in (*updates, flattened):
                skeleton = replay_skeleton(source)
                if skeleton is None or skeleton != self.skeletons.get(source.origin):
                    return None
                sources[source.origin] = source
        if len(sources) != len(self.skeletons):
            return None
        resolutions = dict(self.fixed)
        for quantity in self.order:
            origin, term = self.choices[quantity]
            if origin in sources:
                source = sources[origin]
                resolutions[quantity] = source.rhs if term is None else source.solved_for(term).rhs
        assembled = AssembledModel(
            outputs=list(self.outputs), resolutions=resolutions, order=list(self.order)
        )
        return to_signal_flow(
            assembled,
            None,
            name=name or acquisition.circuit.name,
            timestep=self.timestep,
            inputs=acquisition.inputs,
        )


    def record_tape(self, model: "Circuit | VamsModule | str") -> "ReplayTape | None":
        """This recipe's replay of ``model``, recorded on a tape.

        ``None`` when the replay gives no model (outside the rule, or an
        error) or a traced value escapes the tape.
        """
        tape = Tape()
        try:
            template = self.replay(model, tape=tape)
        except (ReproError, ArithmeticError):
            return None
        if template is None or tape.escaped:
            return None
        constants = template.constants()
        shape, _ = _acquired(acquire(model).dipole_equations)
        return ReplayTape(
            tape=tape,
            shape=shape,
            template=template.with_constants([plain(value) for value in constants]),
            nodes=tuple(value.node if type(value) is Traced else None for value in constants),
        )


def _blank(node: Expr, values: list[float]):
    """``node``'s structure with each constant blanked to ``None``, its value
    appended to ``values``."""
    kind = type(node)
    if kind is Constant:
        values.append(node.value)
        return None
    if kind is BinaryOp:
        return (node.op, _blank(node.lhs, values), _blank(node.rhs, values))
    if isinstance(node, (Variable, Previous)):
        return node._key()
    children = tuple(_blank(child, values) for child in node.children())
    return (kind.__name__, getattr(node, "op", None), getattr(node, "func", None), children)


def _acquired(equations: Sequence[Equation]) -> tuple[tuple, list[float]]:
    """The shape of acquired equations and the values it blanks.

    The shape is every equation's name, kind and origin and the structure
    of both sides, each constant's value blanked; the values are those
    constants' values, in pre-order.
    """
    values: list[float] = []
    shape = tuple(
        (
            equation.name,
            equation.kind,
            equation.origin,
            _blank(equation.lhs, values),
            _blank(equation.rhs, values),
        )
        for equation in equations
    )
    return shape, values


def _traced(equations: Sequence[Equation], tape: Tape) -> list[Equation]:
    """``equations`` with each constant a new input of ``tape``, in the
    order of :func:`_acquired`."""

    def visit(node: Expr) -> Expr:
        return Constant(tape.input(node.value)) if type(node) is Constant else node

    return [
        Equation(
            transform(equation.lhs, visit),
            transform(equation.rhs, visit),
            kind=equation.kind,
            name=equation.name,
            origin=equation.origin,
        )
        for equation in equations
    ]


@dataclass(frozen=True)
class TapedModel:
    """A model a :class:`ReplayTape` admitted: the tape's template with the
    scenario's own constant ``values`` (in the order of
    :meth:`SignalFlowModel.constants`) and name."""

    tape: "ReplayTape"
    values: np.ndarray
    name: str

    @property
    def initial_state(self) -> dict[str, float]:
        return self.tape.template.initial_state

    def model(self) -> SignalFlowModel:
        """The model itself, equal to the one its replay gives."""
        return self.tape.template.with_constants(self.values.tolist(), name=self.name)


@dataclass(frozen=True)
class ReplayTape:
    """One replay recorded as a tape, evaluated over many circuits at once.

    :meth:`AbstractionRecipe.record_tape` records it.  ``shape`` is the
    recorded circuit's :func:`_acquired` shape; ``template`` is
    its model; ``nodes`` gives, for each constant of the template, the tape
    node computing it, or ``None`` for one no traced value reaches (the same
    in every circuit).
    """

    tape: Tape
    shape: tuple
    template: SignalFlowModel
    nodes: tuple

    def evaluate(self, models: Sequence) -> "list[TapedModel | None]":
        """What :meth:`AbstractionRecipe.replay` gives for each of ``models``,
        as a :class:`TapedModel`, or ``None`` where the tape sends it back.

        The tape sends back a circuit whose acquisition raises, whose
        acquired equations have another shape, that fails a guard, whose
        linear system is singular, or whose model would hold a non-finite
        constant (:meth:`SignalFlowModel.validate` refuses it).  Its own
        replay then raises or falls back as it does.
        """
        admitted: list = [None] * len(models)
        matched, names, inputs = [], [], []
        for index, model in enumerate(models):
            try:
                acquisition = acquire(model)
            except Exception:  # raised again by the circuit's own replay
                continue
            shape, values = _acquired(acquisition.dipole_equations)
            if shape == self.shape:
                matched.append(index)
                names.append(acquisition.circuit.name)
                inputs.append(values)
        if not matched:
            return admitted
        values, passed = self.tape.evaluate(np.array(inputs, dtype=float).T)
        columns = np.repeat([self.template.constants()], len(matched), axis=0)
        for row, node in enumerate(self.nodes):
            if node is not None:
                columns[:, row] = values[node]
        passed &= np.isfinite(columns).all(axis=1)
        for slot, index in enumerate(matched):
            if passed[slot]:
                admitted[index] = TapedModel(self, columns[slot], names[slot])
        return admitted


def abstract_circuit(
    model: "Circuit | VamsModule | str",
    outputs: list[str] | str,
    timestep: float,
    name: str | None = None,
) -> SignalFlowModel:
    """One-call helper: abstract ``model`` and return only the signal-flow model."""
    return AbstractionFlow(timestep).abstract(model, outputs, name=name).model
