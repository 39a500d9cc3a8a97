"""Table II — long simulated time, abstracted models versus SystemC-AMS/ELN.

Table II removes the Verilog-AMS baseline "to analyse behavior on a longer
simulated time (10 s)" and reports the speed-up of the generated models over
the manual SystemC-AMS/ELN implementation.  The section also reports the
abstraction-tool processing time (7.67 s for RC20, the most complex model
with 22 nodes and 41 branches); :func:`abstraction_processing_times` measures
the same quantity for our implementation.
"""

from __future__ import annotations

from .common import (
    PAPER_TABLE2_SIMULATED_TIME,
    PAPER_TIMESTEP,
    ExperimentRow,
    ExperimentTable,
    PreparedBenchmark,
    prepare_benchmarks,
    scaled_duration,
)
from .table1 import run_component as run_isolation


def run_component(
    prepared: PreparedBenchmark,
    duration: float,
    timestep: float = PAPER_TIMESTEP,
) -> list[ExperimentRow]:
    """Run the four targets of Table II for one component."""
    return run_isolation(prepared, duration, timestep, baseline="SC-AMS/ELN")


def run_table2(
    components: list[str] | None = None,
    duration: float | None = None,
    timestep: float = PAPER_TIMESTEP,
) -> ExperimentTable:
    """Reproduce Table II (speed-ups relative to SystemC-AMS/ELN)."""
    duration = duration if duration is not None else scaled_duration(PAPER_TABLE2_SIMULATED_TIME, timestep=timestep)
    table = ExperimentTable(
        "Table II - simulation performance for the abstracted models, in isolation, "
        "compared to SystemC-AMS/ELN"
    )
    for prepared in prepare_benchmarks(components, timestep):
        for row in run_component(prepared, duration, timestep):
            table.add(row)
    return table


def abstraction_processing_times(
    components: list[str] | None = None,
    timestep: float = PAPER_TIMESTEP,
) -> dict[str, dict[str, float]]:
    """Measure the abstraction-tool processing time per component.

    Returns, for every component, the per-step timings (acquisition,
    enrichment, assemble, solve), the total, and the circuit size — the
    figures the paper summarises with "the abstraction tool spent 7.67 s to
    process the most complex model, i.e. RC20, which features 22 nodes and 41
    branches".
    """
    results: dict[str, dict[str, float]] = {}
    for prepared in prepare_benchmarks(components, timestep):
        report = prepared.report
        entry = dict(report.timings)
        entry["total"] = report.total_time
        if report.acquisition is not None:
            entry["nodes"] = float(report.acquisition.node_count)
            entry["branches"] = float(report.acquisition.branch_count)
        results[prepared.name] = entry
    return results
