"""Table III — the abstracted models integrated in the complete virtual platform.

The digital part is a MIPS CPU executing firmware from memory, a UART and the
APB bus; one analog device is attached per run.  The paper compares the
Verilog-AMS co-simulation (two variants in the original table — here a single
co-simulation configuration) against the SystemC-AMS/ELN, SystemC-AMS/TDF,
SystemC-DE and pure C++ integrations, reporting platform simulation time and
speed-up over co-simulation.

Execution is delegated to the platform sweep layer
(:mod:`repro.sweep.platform`): one Table III component is a
:class:`~repro.sweep.platform.PlatformScenarioSpec` with a single nominal
analog point and one scenario per integration style, and
:func:`sweep_component` exposes the full design-space version (parameter
corners × styles × firmware variants) the one-shot table cannot show.
"""

from __future__ import annotations

from ..sweep.platform import (
    PlatformScenarioSpec,
    PlatformSweepResult,
    PlatformSweepRunner,
)
from ..vp.platform import PlatformRunResult
from .common import (
    PAPER_TABLE3_SIMULATED_TIME,
    PAPER_TIMESTEP,
    ExperimentRow,
    ExperimentTable,
    PreparedBenchmark,
    prepare_benchmarks,
    scaled_duration,
)

#: Analog integration styles of Table III, in the paper's row order.
TABLE3_TARGETS = (
    ("Verilog-AMS (cosim)", "manual", "cosim"),
    ("SC-AMS/ELN", "manual", "eln"),
    ("SC-AMS/TDF", "algo", "tdf"),
    ("SC-DE", "algo", "de"),
    ("C++", "algo", "python"),
)


def sweep_component(
    prepared: PreparedBenchmark,
    duration: float,
    styles: "tuple[str, ...]",
    cpu_clock_hz: float = 20e6,
    timestep: float = PAPER_TIMESTEP,
    workers: int = 1,
    record_analog: bool = False,
    parameters=None,
    firmwares=None,
) -> PlatformSweepResult:
    """Run one component's platform across ``styles`` via the sweep layer.

    ``parameters`` (any :class:`~repro.sweep.spec.SweepSpec`) and
    ``firmwares`` (variant name → assembly source) open the full design
    space around the component; by default a single nominal point with the
    default firmware reproduces the classic Table III column.  Every
    parameter point is abstracted inside the sweep, outside the timed
    platform run.
    """
    benchmark = prepared.benchmark
    runner = PlatformSweepRunner(
        benchmark.build,
        benchmark.output,
        benchmark.stimuli,
        timestep=timestep,
        cpu_clock_hz=cpu_clock_hz,
        workers=workers,
        record_analog=record_analog,
    )
    spec = PlatformScenarioSpec(
        parameters=parameters, styles=styles, firmwares=firmwares
    )
    return runner.run(spec, duration)


def run_component(
    prepared: PreparedBenchmark,
    duration: float,
    cpu_clock_hz: float = 20e6,
    timestep: float = PAPER_TIMESTEP,
    styles: tuple = TABLE3_TARGETS,
) -> tuple[list[ExperimentRow], dict[str, PlatformRunResult]]:
    """Run every platform configuration of Table III for one component.

    The first style listed is the speed-up baseline, as in the paper.
    """
    style_keys = tuple(style for _, _, style in styles)
    sweep = sweep_component(
        prepared, duration, style_keys, cpu_clock_hz=cpu_clock_hz, timestep=timestep
    )
    summary = sweep.summary_by_style()
    baseline_time = summary[style_keys[0]]["mean_time"]

    rows: list[ExperimentRow] = []
    results: dict[str, PlatformRunResult] = {}
    for (label, generation, style), result in zip(styles, sweep.results):
        entry = summary[style]
        elapsed = entry["mean_time"]
        results[style] = result
        rows.append(
            ExperimentRow(
                component=prepared.name,
                target=label,
                generation=generation,
                simulation_time=elapsed,
                speedup=baseline_time / elapsed if elapsed > 0 else float("inf"),
                extra={
                    "instructions": float(result.instructions),
                    "analog_samples": float(result.analog_samples),
                },
            )
        )
    return rows, results


def run_table3(
    components: list[str] | None = None,
    duration: float | None = None,
    cpu_clock_hz: float = 20e6,
    timestep: float = PAPER_TIMESTEP,
) -> ExperimentTable:
    """Reproduce Table III (platform simulation, speed-up over co-simulation)."""
    duration = duration if duration is not None else scaled_duration(PAPER_TABLE3_SIMULATED_TIME, timestep=timestep)
    table = ExperimentTable(
        "Table III - simulation performance for the abstracted models integrated "
        "in the virtual platform"
    )
    for prepared in prepare_benchmarks(components, timestep):
        rows, _ = run_component(prepared, duration, cpu_clock_hz, timestep)
        for row in rows:
            table.add(row)
    return table
