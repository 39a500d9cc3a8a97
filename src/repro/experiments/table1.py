"""Table I — simulation performance and accuracy of the models in isolation.

For every benchmark component (2IN, RC1, RC20, OA) the paper compares the
original Verilog-AMS model against the manual SystemC-AMS/ELN model and the
automatically generated SystemC-AMS/TDF, SystemC-DE and C++ models, reporting
simulation time, NRMSE against Verilog-AMS and speed-up over Verilog-AMS.
"""

from __future__ import annotations

from ..metrics.nrmse import compare_traces
from ..metrics.timing import measure
from ..sim.runners import (
    run_de_model,
    run_eln_model,
    run_python_model,
    run_reference_model,
    run_tdf_model,
)
from .common import (
    PAPER_TABLE1_SIMULATED_TIME,
    PAPER_TIMESTEP,
    ExperimentRow,
    ExperimentTable,
    PreparedBenchmark,
    prepare_benchmarks,
    scaled_duration,
)


def run_component(
    prepared: PreparedBenchmark,
    duration: float,
    timestep: float = PAPER_TIMESTEP,
    baseline: str = "Verilog-AMS",
) -> list[ExperimentRow]:
    """Run the isolation targets of one component, from ``baseline`` on.

    Table I's baseline is the Verilog-AMS reference; Table II's is
    SC-AMS/ELN, which drops the reference run.  Every row, the baseline's
    own included, reports its speed-up over the baseline.  The error column
    is the NRMSE against Verilog-AMS, so only Table I fills it.
    """
    benchmark = prepared.benchmark
    model = prepared.model
    output = prepared.output
    stimuli = benchmark.stimuli
    targets = [
        (
            "Verilog-AMS",
            "manual",
            lambda: run_reference_model(benchmark.circuit(), stimuli, duration, timestep, [output]),
        ),
        (
            "SC-AMS/ELN",
            "manual",
            lambda: run_eln_model(benchmark.circuit(), stimuli, duration, timestep, [output]),
        ),
        ("SC-AMS/TDF", "algo", lambda: run_tdf_model(model, stimuli, duration)),
        ("SC-DE", "algo", lambda: run_de_model(model, stimuli, duration)),
        ("C++", "algo", lambda: run_python_model(model, stimuli, duration)),
    ]
    first = [label for label, _, _ in targets].index(baseline)
    reference = None
    rows: list[ExperimentRow] = []
    for label, generation, runner in targets[first:]:
        traces, elapsed = measure(runner)
        if not rows:
            baseline_time = elapsed
            if label == "Verilog-AMS":
                reference = traces[output]
        rows.append(
            ExperimentRow(
                component=benchmark.name,
                target=label,
                generation=generation,
                simulation_time=elapsed,
                error=None if reference is None else compare_traces(reference, traces[output]),
                speedup=baseline_time / elapsed if elapsed > 0 else float("inf"),
            )
        )
        del traces  # the next target runs without this one's samples in memory
    return rows


def run_table1(
    components: list[str] | None = None,
    duration: float | None = None,
    timestep: float = PAPER_TIMESTEP,
) -> ExperimentTable:
    """Reproduce Table I (optionally restricted to some components)."""
    duration = duration if duration is not None else scaled_duration(PAPER_TABLE1_SIMULATED_TIME, timestep=timestep)
    table = ExperimentTable(
        "Table I - simulation performance and accuracy for the abstracted models in isolation"
    )
    for prepared in prepare_benchmarks(components, timestep):
        for row in run_component(prepared, duration, timestep):
            table.add(row)
    return table
