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

Run with a :class:`~repro.expr.tape.Tape`, the flow records itself: each
constant of the acquired dipole equations is a traced input, so every float
operation of enrichment, assemble and the solve, and every comparison a
choice of theirs makes on a value, is on the tape.  A :class:`ReplayTape`
is such a recording, evaluated over many circuits of the recorded topology
at once; a sweep abstracts each topology's later circuits that way
(:func:`repro.sweep.runner.abstract_chunk`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..errors import AbstractionError
from ..expr.ast import BinaryOp, Constant, Expr, Previous, Variable, transform
from ..expr.equation import Equation
from ..expr.tape import Tape, Traced, plain
from ..obs.tracer import TRACER
from ..network.circuit import Circuit
from ..vams.ast import VamsModule
from ..vams.classify import classify_module
from ..vams.parser import parse_module
from .acquisition import AcquisitionResult, acquire
from .assemble import AssembledModel, Assembler, normalise_output
from .enrichment import EnrichmentResult, enrich
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
        tape: "Tape | None" = None,
    ) -> AbstractionReport:
        """Abstract a conservative description for the given outputs of interest.

        With a ``tape`` (see :meth:`ReplayTape.record`), each constant of the
        acquired dipole equations becomes one of its inputs, in the order of
        :func:`_acquired`, and the flow runs on those traced values.
        """
        if isinstance(outputs, str):
            outputs = [outputs]

        timings: dict[str, float] = {}

        start = time.perf_counter()
        acquisition = acquire(model)
        if tape is not None:
            acquisition = replace(
                acquisition, dipole_equations=_traced(acquisition.dipole_equations, tape)
            )
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
        """The model itself, equal to the one the full flow gives."""
        return self.tape.template.with_constants(self.values.tolist(), name=self.name)


@dataclass(frozen=True)
class ReplayTape:
    """One full flow recorded as a tape, evaluated over many circuits at once.

    :meth:`record` records it.  ``shape`` is the recorded circuit's
    :func:`_acquired` shape; ``template`` is its model; ``nodes`` gives, for
    each constant of the template, the tape node computing it, or ``None``
    for one no traced value reaches (the same in every circuit).
    """

    tape: Tape
    shape: tuple
    template: SignalFlowModel
    nodes: tuple

    @classmethod
    def record(
        cls, flow: AbstractionFlow, circuit: Circuit, outputs: Sequence[str]
    ) -> "ReplayTape | None":
        """``flow``'s abstraction of ``circuit`` for ``outputs``, recorded.

        ``None`` when the flow raises or a traced value escapes the tape;
        otherwise the template is the model the flow gives ``circuit``
        untraced.
        """
        tape = Tape()
        try:
            report = flow.abstract(circuit, outputs, tape=tape)
        except Exception:  # raised again by the circuit's own full flow
            return None
        if tape.escaped:
            return None
        constants = report.model.constants()
        shape, _ = _acquired(report.acquisition.dipole_equations)
        return cls(
            tape=tape,
            shape=shape,
            template=report.model.with_constants([plain(value) for value in constants]),
            nodes=tuple(value.node if type(value) is Traced else None for value in constants),
        )

    def evaluate(self, circuits: Sequence[Circuit]) -> "list[TapedModel | None]":
        """What the full flow gives each of ``circuits``, as a
        :class:`TapedModel`, or ``None`` where the tape sends it back.

        ``circuits`` must have the recorded circuit's topology and outputs
        (:func:`repro.sweep.runner.topology_key`): the flow reads nothing
        else of a circuit but its acquired equations.  The tape sends back a
        circuit whose acquisition raises, whose acquired equations have
        another shape, that fails a guard, whose linear system is singular,
        or whose model would hold a non-finite constant
        (:meth:`SignalFlowModel.validate` refuses it).  Its own full flow
        then raises or gives its model.
        """
        admitted: list = [None] * len(circuits)
        matched, names, inputs = [], [], []
        for index, circuit in enumerate(circuits):
            try:
                acquisition = acquire(circuit)
            except Exception:  # raised again by the circuit's own full flow
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
