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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..errors import AbstractionError
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
    method:
        Discretisation scheme for the analog operators.
    """

    def __init__(
        self,
        timestep: float,
        method: str = "backward_euler",
    ) -> None:
        if timestep <= 0.0:
            raise ValueError("timestep must be positive")
        self.timestep = float(timestep)
        self.method = method

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
        enrichment = enrich(acquisition, self.timestep, method=self.method)
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
        return convert_signal_flow(module, self.timestep, self.method)

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


def abstract_circuit(
    model: "Circuit | VamsModule | str",
    outputs: list[str] | str,
    timestep: float,
    method: str = "backward_euler",
    name: str | None = None,
) -> SignalFlowModel:
    """One-call helper: abstract ``model`` and return only the signal-flow model."""
    flow = AbstractionFlow(timestep, method=method)
    return flow.abstract(model, outputs, name=name).model
