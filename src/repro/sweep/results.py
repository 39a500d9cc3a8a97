"""Ensemble results of a sweep: waveform matrices plus aggregation helpers.

A :class:`SweepResult` holds one waveform matrix per recorded output —
shape ``(n_scenarios, n_steps)`` — together with the scenario list that
produced it.  Aggregation follows the conventions of the experiment harness
(:mod:`repro.experiments`): per-scenario rows, summary statistics over the
ensemble, and text/markdown/CSV renderings for reports.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..sim.trace import TraceSet
from .spec import Scenario


def csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """A table as CSV text, one line per row and no trailing newline.

    Cells are quoted and escaped by :mod:`csv`, so labels, parameters and
    details holding commas or quotes keep every row at the header's length.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()[:-1]


@dataclass
class SweepResult:
    """Everything produced by one :class:`~repro.sweep.runner.SweepRunner` run."""

    scenarios: list[Scenario]
    #: Sample times shared by every scenario, shape ``(n_steps,)``.
    times: np.ndarray
    #: Output name → waveform matrix of shape ``(n_scenarios, n_steps)``.
    outputs: dict[str, np.ndarray]
    backend: str
    workers: int = 1
    #: Wall-clock seconds spent in each phase (``abstract``, ``simulate``...).
    timings: dict[str, float] = field(default_factory=dict)
    #: Number of distinct model structures among the scenarios (the batching
    #: granularity of the vectorized backend).
    structure_groups: int = 0
    #: Output name → per-scenario NRMSE versus the reference AMS engine
    #: (present only when the run requested the reference comparison).
    nrmse: dict[str, np.ndarray] | None = None
    #: Per-scenario execution flags: ``True`` for scenarios simulated by this
    #: run, ``False`` for scenarios loaded from a campaign store (resume).
    #: ``None`` on results built before the store layer existed.
    executed: np.ndarray | None = None
    #: Merged worker telemetry (:class:`~repro.obs.telemetry.TelemetryReport`)
    #: when the run was traced; ``None`` otherwise.
    telemetry: object | None = None

    # -- shape queries -----------------------------------------------------------------
    @property
    def n_scenarios(self) -> int:
        return len(self.scenarios)

    @property
    def executed_count(self) -> int:
        """Scenarios actually simulated (all of them without a resume store)."""
        if self.executed is None:
            return self.n_scenarios
        return int(np.count_nonzero(self.executed))

    @property
    def n_steps(self) -> int:
        return int(self.times.size)

    def output_names(self) -> list[str]:
        """Names of the recorded outputs."""
        return list(self.outputs)

    # -- ensemble access ---------------------------------------------------------------
    def ensemble(self, name: str) -> np.ndarray:
        """The full waveform matrix of ``name``, shape ``(n_scenarios, n_steps)``."""
        return self.outputs[name]

    def waveform(self, name: str, index: int) -> np.ndarray:
        """One scenario's waveform for output ``name``."""
        return self.outputs[name][index]

    def final_values(self, name: str) -> np.ndarray:
        """Per-scenario value of ``name`` at the final timestep."""
        return self.outputs[name][:, -1]

    def trace_set(self, index: int) -> TraceSet:
        """The scenario's waveforms as a :class:`TraceSet` (engine-compatible)."""
        traces = TraceSet()
        for name, matrix in self.outputs.items():
            trace = traces.add(name)
            for time, value in zip(self.times, matrix[index]):
                trace.append(float(time), float(value))
        return traces

    def envelope(self, name: str) -> dict[str, np.ndarray]:
        """Per-timestep ensemble statistics of output ``name``.

        Returns ``mean``, ``std``, ``min`` and ``max`` arrays of shape
        ``(n_steps,)`` — the tolerance band the sweep explored.
        """
        matrix = self.outputs[name]
        return {
            "mean": matrix.mean(axis=0),
            "std": matrix.std(axis=0),
            "min": matrix.min(axis=0),
            "max": matrix.max(axis=0),
        }

    # -- aggregation -------------------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Summary statistics of the final values, one entry per output."""
        stats: dict[str, dict[str, float]] = {}
        for name, matrix in self.outputs.items():
            final = matrix[:, -1]
            entry = {
                "mean": float(final.mean()),
                "std": float(final.std()),
                "min": float(final.min()),
                "max": float(final.max()),
            }
            if self.nrmse is not None and name in self.nrmse:
                entry["nrmse_max"] = float(np.max(self.nrmse[name]))
                entry["nrmse_mean"] = float(np.mean(self.nrmse[name]))
            stats[name] = entry
        return stats

    # -- reporting ---------------------------------------------------------------------
    def _row_cells(self, index: int) -> list[str]:
        scenario = self.scenarios[index]
        params = ";".join(
            f"{name}={value:g}" if isinstance(value, float) else f"{name}={value}"
            for name, value in scenario.params.items()
        )
        cells = [str(scenario.index), scenario.origin, scenario.label, params]
        for name in self.outputs:
            cells.append(f"{self.outputs[name][index, -1]:.6g}")
            if self.nrmse is not None and name in self.nrmse:
                cells.append(f"{self.nrmse[name][index]:.3e}")
        return cells

    def _header_cells(self) -> list[str]:
        cells = ["#", "origin", "label", "params"]
        for name in self.outputs:
            cells.append(f"final {name}")
            if self.nrmse is not None and name in self.nrmse:
                cells.append(f"NRMSE {name}")
        return cells

    def to_markdown(self) -> str:
        """Render the sweep as a markdown report (summary plus per-scenario table)."""
        lines = [
            f"# Sweep report — {self.n_scenarios} scenarios, backend `{self.backend}`",
            "",
            f"- timesteps: {self.n_steps} (dt spanning {self.times[0]:g} s → {self.times[-1]:g} s)",
            f"- structure groups: {self.structure_groups}",
            f"- workers: {self.workers}",
        ]
        for phase, seconds in self.timings.items():
            lines.append(f"- {phase}: {seconds:.3f} s")
        lines.append("")
        lines.append("## Ensemble summary (final values)")
        lines.append("")
        lines.append("| output | mean | std | min | max |")
        lines.append("|---|---|---|---|---|")
        for name, stats in self.summary().items():
            lines.append(
                f"| {name} | {stats['mean']:.6g} | {stats['std']:.3g} "
                f"| {stats['min']:.6g} | {stats['max']:.6g} |"
            )
        lines.append("")
        lines.append("## Scenarios")
        lines.append("")
        header = self._header_cells()
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for index in range(self.n_scenarios):
            lines.append("| " + " | ".join(self._row_cells(index)) + " |")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Render the per-scenario table as CSV."""
        return csv_text(
            self._header_cells(), [self._row_cells(i) for i in range(self.n_scenarios)]
        )
