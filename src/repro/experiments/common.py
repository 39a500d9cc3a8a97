"""Shared infrastructure of the experiment harness (Tables I-III).

The paper's experiments use a 50 ns timestep, a 1 ms square wave and 100 ms
(Table I / III) or 10 s (Table II) of simulated time.  Simulating that much
virtual time with Python substrates is possible but slow, so every experiment
scales the simulated time by ``REPRO_SIM_TIME_SCALE`` (default 1/100); the
reported metrics are speed-up ratios and NRMSE values, both of which are
essentially scale-invariant.  Set ``REPRO_SIM_TIME_SCALE=1`` to run the
paper-size workloads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..circuits.library import BenchmarkCircuit, paper_benchmarks
from ..core.flow import AbstractionFlow, AbstractionReport

#: Paper experimental parameters (Section V.A).
PAPER_TIMESTEP = 50e-9
PAPER_SQUARE_WAVE_PERIOD = 1e-3
PAPER_TABLE1_SIMULATED_TIME = 100e-3
PAPER_TABLE2_SIMULATED_TIME = 10.0
PAPER_TABLE3_SIMULATED_TIME = 100e-3

#: Default scaling of simulated time (see the module docstring).
DEFAULT_TIME_SCALE = 1.0 / 100.0


def simulated_time_scale() -> float:
    """Return the configured simulated-time scale factor."""
    value = os.environ.get("REPRO_SIM_TIME_SCALE", "")
    if not value:
        return DEFAULT_TIME_SCALE
    scale = float(value)
    if scale <= 0.0:
        raise ValueError("REPRO_SIM_TIME_SCALE must be positive")
    return scale


def scaled_duration(
    paper_duration: float,
    minimum_steps: int = 2000,
    timestep: float = PAPER_TIMESTEP,
) -> float:
    """Scale a paper duration, keeping at least ``minimum_steps`` analog steps.

    The result is snapped onto the ``timestep`` grid — an arbitrary
    ``REPRO_SIM_TIME_SCALE`` (or a non-paper timestep) would otherwise
    produce durations the fixed-step runners reject as fractional step
    counts.
    """
    duration = paper_duration * simulated_time_scale()
    steps = max(int(round(duration / timestep)), minimum_steps)
    return steps * timestep


@dataclass
class PreparedBenchmark:
    """A benchmark circuit with its abstraction already performed."""

    benchmark: BenchmarkCircuit
    report: AbstractionReport

    @property
    def name(self) -> str:
        return self.benchmark.name

    @property
    def model(self):
        return self.report.model

    @property
    def output(self) -> str:
        return self.benchmark.output_quantity


def prepare_benchmarks(
    names: list[str] | None = None,
    timestep: float = PAPER_TIMESTEP,
) -> list[PreparedBenchmark]:
    """Abstract every requested benchmark circuit (default: the paper's four)."""
    flow = AbstractionFlow(timestep)
    prepared: list[PreparedBenchmark] = []
    for benchmark in paper_benchmarks():
        if names is not None and benchmark.name not in names:
            continue
        report = flow.abstract(
            benchmark.circuit(), benchmark.output, name=benchmark.name.lower()
        )
        prepared.append(PreparedBenchmark(benchmark, report))
    return prepared


@dataclass
class ExperimentRow:
    """One row of a results table."""

    component: str
    target: str
    generation: str
    simulation_time: float
    error: float | None = None
    speedup: float | None = None
    extra: dict[str, float] = field(default_factory=dict)


@dataclass
class ExperimentTable:
    """A reproduced table: named rows plus formatting helpers."""

    title: str
    rows: list[ExperimentRow] = field(default_factory=list)

    def add(self, row: ExperimentRow) -> None:
        self.rows.append(row)

    def to_text(self) -> str:
        """Render the table in the same column layout as the paper."""
        header = (
            f"{'Component':10s} {'Target language':18s} {'Gen.':6s} "
            f"{'Sim. time (s)':>14s} {'Error (NRMSE)':>14s} {'Speed-up':>10s}"
        )
        lines = [self.title, "=" * len(header), header, "-" * len(header)]
        for row in self.rows:
            error = f"{row.error:.2e}" if row.error is not None else "-"
            speedup = f"{row.speedup:.2f}x" if row.speedup is not None else "-"
            lines.append(
                f"{row.component:10s} {row.target:18s} {row.generation:6s} "
                f"{row.simulation_time:14.4f} {error:>14s} {speedup:>10s}"
            )
        return "\n".join(lines)

    def as_dicts(self) -> list[dict]:
        """Rows as plain dictionaries (for JSON dumps and tests)."""
        return [
            {
                "component": row.component,
                "target": row.target,
                "generation": row.generation,
                "simulation_time": row.simulation_time,
                "error": row.error,
                "speedup": row.speedup,
                **row.extra,
            }
            for row in self.rows
        ]
