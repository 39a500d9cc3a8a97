"""Detectability analysis of a fault campaign: verdicts, coverage, collapse.

Every faulted run is compared against the golden (fault-free) run of the same
platform scenario and classified into exactly one verdict:

``crash``
    The run did not complete: the injected fault took the platform down (an
    illegal instruction after code corruption, a wild bus access), or the
    faulted netlist could not be abstracted at all.
``firmware-detected``
    The software-visible outcome changed: the UART byte stream or the
    crossing counter the firmware maintains in RAM differs from golden.  This
    is the observable the paper's holistic what-if analysis cares about — the
    firmware *reacted* (correctly or not) to the fault.
``trace-divergent``
    The software outcome is identical, but the ADC sample stream diverges
    from golden beyond the campaign's NRMSE threshold: the fault corrupts the
    analog signal without the firmware noticing — silent data corruption at
    the system boundary.
``silent``
    Nothing observable changed.  (For analog faults, a drift below the NRMSE
    threshold; for digital faults, an injection that was masked before any
    readout.)

The **fault collapse** groups runs whose entire observable outcome —
software fingerprint plus bit-exact ADC trace — coincides, the dictionary
trick of classic fault simulation: faults in one equivalence class are
indistinguishable by this campaign and need only one representative in a
denser test set.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from ..errors import FaultError
from ..metrics.nrmse import nrmse
from ..vp.platform import PlatformRunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (campaign imports us)
    from .campaign import FaultRun

#: The five verdicts, in increasing severity order.  ``lint-rejected`` is
#: the strict static-analysis gate (``lint=True`` on the campaign runner):
#: the faulted circuit never executed because :mod:`repro.lint` found an
#: error in it, so the mutant is skipped-with-verdict rather than crashed.
VERDICT_SILENT = "silent"
VERDICT_TRACE = "trace-divergent"
VERDICT_DETECTED = "firmware-detected"
VERDICT_LINT = "lint-rejected"
VERDICT_CRASH = "crash"
VERDICTS = (
    VERDICT_SILENT,
    VERDICT_TRACE,
    VERDICT_DETECTED,
    VERDICT_LINT,
    VERDICT_CRASH,
)


def trace_nrmse(
    golden: PlatformRunResult, faulted: PlatformRunResult
) -> "float | None":
    """NRMSE of the faulted ADC stream versus golden (``None`` if unrecorded).

    Both runs sample the same platform on the same analog grid, so the
    streams are index-aligned; a crashed run's shorter stream is compared
    over the common prefix.
    """
    if golden.analog_trace is None or faulted.analog_trace is None:
        return None
    reference = np.asarray(golden.analog_trace, dtype=float)
    measured = np.asarray(faulted.analog_trace, dtype=float)
    length = min(reference.size, measured.size)
    if length == 0:
        return None
    return float(nrmse(reference[:length], measured[:length]))


def classify_run(
    golden: PlatformRunResult,
    faulted: PlatformRunResult,
    nrmse_threshold: float,
) -> tuple[str, "float | None", str]:
    """Classify one faulted run; returns ``(verdict, nrmse, detail)``."""
    error = trace_nrmse(golden, faulted)
    if faulted.crashed is not None:
        if faulted.crashed.startswith("LintError"):
            return VERDICT_LINT, error, faulted.crashed
        return VERDICT_CRASH, error, faulted.crashed
    if faulted.uart_output != golden.uart_output:
        return (
            VERDICT_DETECTED,
            error,
            f"UART diverged ({golden.uart_output!r} -> {faulted.uart_output!r})",
        )
    if faulted.crossings_reported != golden.crossings_reported:
        return (
            VERDICT_DETECTED,
            error,
            f"crossing counter diverged ({golden.crossings_reported} -> "
            f"{faulted.crossings_reported})",
        )
    if error is not None and error > nrmse_threshold:
        return (
            VERDICT_TRACE,
            error,
            f"ADC trace NRMSE {error:.3e} > {nrmse_threshold:g}",
        )
    return VERDICT_SILENT, error, "no observable divergence"


@dataclass
class FaultVerdict:
    """The classification of one faulted run."""

    run: "FaultRun"
    result: PlatformRunResult
    verdict: str
    nrmse: "float | None"
    detail: str

    @property
    def detected(self) -> bool:
        """Whether the fault left *any* observable mark (non-silent)."""
        return self.verdict != VERDICT_SILENT


@dataclass
class FaultCampaignResult:
    """Everything produced by one :class:`~repro.fault.campaign.FaultCampaignRunner` run."""

    runs: "list[FaultRun]"
    results: list[PlatformRunResult]
    elapsed: np.ndarray
    duration: float
    timestep: float
    workers: int = 1
    nrmse_threshold: float = 1e-3
    timings: dict[str, float] = field(default_factory=dict)
    #: Per-run execution flags: ``True`` for runs simulated by this campaign,
    #: ``False`` for runs loaded from a campaign store (resume).
    executed: "np.ndarray | None" = None
    #: Merged worker telemetry (:class:`~repro.obs.telemetry.TelemetryReport`)
    #: when the campaign was traced; ``None`` otherwise.
    telemetry: object | None = None
    _verdicts: "list[FaultVerdict] | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.runs) != len(self.results):
            raise FaultError(
                f"campaign bookkeeping mismatch: {len(self.runs)} runs but "
                f"{len(self.results)} results"
            )

    # -- shape queries -----------------------------------------------------------------
    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def n_faulted(self) -> int:
        return sum(1 for run in self.runs if not run.golden)

    @property
    def executed_count(self) -> int:
        """Runs actually simulated (all of them without a resume store)."""
        if self.executed is None:
            return self.n_runs
        return int(np.count_nonzero(self.executed))

    def fingerprints(self) -> list[tuple]:
        """Per-run deterministic outcomes, in run order (serial == parallel)."""
        return [result.fingerprint() for result in self.results]

    # -- golden references -------------------------------------------------------------
    def golden_results(self) -> dict[int, PlatformRunResult]:
        """Golden run results keyed by platform-scenario index."""
        golden: dict[int, PlatformRunResult] = {}
        for run, result in zip(self.runs, self.results):
            if run.golden:
                if result.crashed is not None:
                    raise FaultError(
                        f"golden run {run.describe()} crashed ({result.crashed}); "
                        f"the campaign baseline is invalid"
                    )
                golden[run.scenario.index] = result
        if not golden:
            raise FaultError("the campaign contains no golden run")
        return golden

    # -- classification ----------------------------------------------------------------
    def verdicts(self) -> list[FaultVerdict]:
        """One verdict per *faulted* run (golden runs are the reference)."""
        if self._verdicts is None:
            golden = self.golden_results()
            # Golden traces become float arrays once, not once per faulted
            # run: trace_nrmse's np.asarray of an array is free.
            for index, result in golden.items():
                if result.analog_trace is not None:
                    trace = np.asarray(result.analog_trace, dtype=float)
                    golden[index] = replace(result, analog_trace=trace)
            verdicts: list[FaultVerdict] = []
            for run, result in zip(self.runs, self.results):
                if run.golden:
                    continue
                reference = golden.get(run.scenario.index)
                if reference is None:
                    raise FaultError(
                        f"no golden run for the platform scenario of "
                        f"{run.describe()}"
                    )
                verdict, error, detail = classify_run(
                    reference, result, self.nrmse_threshold
                )
                verdicts.append(FaultVerdict(run, result, verdict, error, detail))
            self._verdicts = verdicts
        return self._verdicts

    def counts(self) -> dict[str, int]:
        """Faulted-run count per verdict (every verdict present, maybe 0)."""
        counts = {verdict: 0 for verdict in VERDICTS}
        for entry in self.verdicts():
            counts[entry.verdict] += 1
        return counts

    def detected_fraction(self) -> float:
        """Fault coverage: the fraction of faulted runs that were non-silent.

        ``nan`` when the campaign has no faulted runs — coverage of an empty
        universe is undefined, not zero.  Reports must render that case via
        :meth:`coverage_text`, never by formatting the raw fraction.
        """
        verdicts = self.verdicts()
        if not verdicts:
            return float("nan")
        return sum(1 for entry in verdicts if entry.detected) / len(verdicts)

    def coverage_text(self) -> str:
        """Human-readable fault coverage (``"n/a (0 faulted runs)"`` safe)."""
        fraction = self.detected_fraction()
        if math.isnan(fraction):
            return "n/a (0 faulted runs)"
        return f"{100.0 * fraction:.1f} %"

    def coverage_matrix(self) -> dict[str, dict[str, int]]:
        """Fault-kind × verdict matrix (rows in first-appearance order)."""
        matrix: dict[str, dict[str, int]] = {}
        for entry in self.verdicts():
            row = matrix.setdefault(
                entry.run.fault.kind, {verdict: 0 for verdict in VERDICTS}
            )
            row[entry.verdict] += 1
        return matrix

    # -- fault collapse ----------------------------------------------------------------
    def outcome_fingerprint(self, position: int) -> tuple:
        """The full observable outcome of run ``position``: the software
        fingerprint plus a digest of the bit-exact ADC stream."""
        result = self.results[position]
        if result.analog_trace is None:
            digest = "unrecorded"
        else:
            trace = np.asarray(result.analog_trace, dtype=float)
            digest = hashlib.sha256(trace.tobytes()).hexdigest()[:16]
        return (self.runs[position].scenario.index, result.fingerprint(), digest)

    def collapse(self) -> "list[list[FaultVerdict]]":
        """Equivalence classes of faulted runs with identical outcomes.

        The dictionary-style fault collapse: within one platform scenario,
        faults whose complete observable outcome coincides are mutually
        indistinguishable.  Classes are returned largest-first; singleton
        classes are included (a fault with a unique outcome is its own
        class).
        """
        by_verdict_position = {
            entry.run.index: entry for entry in self.verdicts()
        }
        classes: dict[tuple, list[FaultVerdict]] = {}
        for position, run in enumerate(self.runs):
            if run.golden:
                continue
            classes.setdefault(self.outcome_fingerprint(position), []).append(
                by_verdict_position[run.index]
            )
        return sorted(classes.values(), key=len, reverse=True)

    # -- reporting ---------------------------------------------------------------------
    def to_markdown(self) -> str:
        """Markdown report: verdict totals, coverage matrix, collapse, runs."""
        counts = self.counts()
        collapse = self.collapse()
        lines = [
            f"# Fault campaign report — {self.n_faulted} faulted runs, "
            f"{self.n_runs - self.n_faulted} golden",
            "",
            f"- simulated time per run: {self.duration:g} s "
            f"(analog timestep {self.timestep:g} s)",
            f"- workers: {self.workers}",
            f"- trace-divergence threshold: NRMSE > {self.nrmse_threshold:g}",
            f"- fault coverage (non-silent): {self.coverage_text()}",
            f"- equivalence classes after collapse: {len(collapse)}",
        ]
        for phase, seconds in self.timings.items():
            lines.append(f"- {phase}: {seconds:.3f} s")
        lines.append("")
        lines.append("## Verdicts")
        lines.append("")
        lines.append("| verdict | runs |")
        lines.append("|---|---|")
        for verdict in VERDICTS:
            lines.append(f"| {verdict} | {counts[verdict]} |")
        lines.append("")
        lines.append("## Coverage by fault kind")
        lines.append("")
        lines.append("| fault kind | " + " | ".join(VERDICTS) + " | total |")
        lines.append("|---|" + "---|" * (len(VERDICTS) + 1))
        for kind, row in self.coverage_matrix().items():
            cells = " | ".join(str(row[verdict]) for verdict in VERDICTS)
            lines.append(f"| {kind} | {cells} | {sum(row.values())} |")
        lines.append("")
        lines.append("## Equivalent faults (collapsed)")
        lines.append("")
        multi = [group for group in collapse if len(group) > 1]
        if not multi:
            lines.append("every faulted run produced a unique outcome")
        for group in multi:
            members = ", ".join(
                f"`{entry.run.fault.name}`" for entry in group
            )
            lines.append(
                f"- {len(group)} runs, verdict {group[0].verdict}: {members}"
            )
        lines.append("")
        lines.append("## Faulted runs")
        lines.append("")
        header = self._header_cells()
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for entry in self.verdicts():
            lines.append("| " + " | ".join(self._row_cells(entry)) + " |")
        return "\n".join(lines)

    #: Free-text columns of the run table that may contain commas and are
    #: therefore quoted in CSV output: scenario label and verdict detail.
    _QUOTED_COLUMNS = (5, 13)

    def to_csv(self) -> str:
        """The per-faulted-run table as CSV (quoted free-text columns)."""
        rows = [",".join(self._header_cells())]
        for entry in self.verdicts():
            cells = self._row_cells(entry)
            for column in self._QUOTED_COLUMNS:
                cells[column] = '"{}"'.format(cells[column].replace('"', "'"))
            rows.append(",".join(cells))
        return "\n".join(rows)

    def _header_cells(self) -> list[str]:
        return [
            "#",
            "fault",
            "kind",
            "layer",
            "at_time",
            "scenario",
            "style",
            "firmware",
            "stimulus",
            "verdict",
            "nrmse",
            "uart_bytes",
            "crossings",
            "detail",
        ]

    def _row_cells(self, entry: FaultVerdict) -> list[str]:
        run = entry.run
        return [
            str(run.index),
            run.fault.name,
            run.fault.kind,
            run.fault.layer,
            "-" if run.fault.layer == "analog" else f"{run.at_time:g}",
            run.scenario.label,
            run.scenario.style,
            run.scenario.firmware,
            run.scenario.stimulus,
            entry.verdict,
            "-" if entry.nrmse is None else f"{entry.nrmse:.3e}",
            str(len(entry.result.uart_output)),
            str(entry.result.crossings_reported),
            entry.detail,
        ]
