"""Command-line fault campaigns (the ``repro-faults`` entry point).

Runs a robustness campaign over one of the paper's benchmark circuits on the
smart-system virtual platform: the default universe is every plausible
analog fault of the netlist (:func:`~repro.fault.models.analog_fault_universe`)
plus the standard digital set
(:func:`~repro.fault.models.digital_fault_universe`), executed against a
golden run and classified into silent / trace-divergent / firmware-detected /
crash.

``--smoke`` runs the CI-sized campaign and *asserts* the classification is
alive — at least one silent, one detected and one crashing fault — so a
broken detectability analysis fails the pipeline instead of printing garbage
coverage numbers.

``--store DIR`` makes the campaign durable: every completed run is
committed to a content-addressed :class:`~repro.store.RunStore` as it
finishes, and ``--resume`` loads committed runs instead of re-executing
them — an interrupted campaign picks up where it left off with
bit-identical verdicts.  ``--interrupt-after N`` simulates the crash (each
worker stops after executing N runs, exit code 3), which is how the CI
campaign-smoke job exercises the store round-trip.

Typical use::

    repro-faults --circuit RC1 --duration 2e-4 --workers 4 \\
        --markdown fault_report.md --csv fault_report.csv
    repro-faults --smoke
    repro-faults --smoke --store campaign/   # interrupted? add --resume
"""

from __future__ import annotations

import argparse

from ..circuits import benchmark_by_name
from ..obs.export import write_trace_json
from ..sim.sources import SquareWave
from ..store import CampaignInterrupted, RunStore
from ..sweep.platform import PlatformScenarioSpec
from ..vp.firmware import threshold_monitor_source
from ..vp.mips import assemble
from .campaign import FaultCampaignRunner, FaultCampaignSpec
from ..errors import FaultError
from .models import (
    AdcStuckBitFault,
    InstructionCorruptionFault,
    MemoryBitFlipFault,
    ParameterDriftFault,
    UartCorruptionFault,
    analog_fault_universe,
    digital_fault_universe,
)
from .report import VERDICT_CRASH, VERDICT_SILENT, VERDICTS, FaultCampaignResult


def silent_sentinel(circuit) -> ParameterDriftFault:
    """A negligible drift on the circuit's first driftable branch.

    Every CLI campaign carries one fault that must classify *silent* (the
    classifier's floor); the target branch depends on the chosen benchmark
    circuit, so it is looked up rather than hardcoded.
    """
    for branch in circuit:
        if any(
            hasattr(branch.component, attribute)
            for attribute in ("resistance", "capacitance", "inductance")
        ):
            return ParameterDriftFault(branch.name, 1.0 + 1e-9)
    raise FaultError(
        f"circuit {circuit.name!r} has no passive branch to use as the "
        f"silent-drift sentinel"
    )


def smoke_problems(result: FaultCampaignResult) -> list[str]:
    """The smoke-mode sanity conditions; empty list means healthy."""
    counts = result.counts()
    problems = []
    if counts[VERDICT_SILENT] < 1:
        problems.append(
            "no fault was classified silent — the near-nominal drift should be"
        )
    detected = sum(
        count for verdict, count in counts.items() if verdict != VERDICT_SILENT
    )
    if detected < 1:
        problems.append(
            "no fault was detected — the stuck ADC bit must perturb the firmware"
        )
    if counts[VERDICT_CRASH] < 1:
        problems.append(
            "no fault crashed the platform — the corrupted poll word must"
        )
    return problems


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--circuit",
        default="RC1",
        help="benchmark circuit (2IN, RC<n>, OA; default RC1)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=2e-4,
        help="simulated seconds per run (default 2e-4)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="multiprocessing workers (default 1)"
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign root seed")
    parser.add_argument(
        "--styles",
        default="python",
        help="comma-separated analog integration styles (default: python)",
    )
    parser.add_argument(
        "--threshold-mv",
        type=int,
        default=500,
        help="firmware crossing threshold in millivolts (default 500)",
    )
    parser.add_argument(
        "--nrmse-threshold",
        type=float,
        default=1e-3,
        help="ADC-trace NRMSE above which a fault is trace-divergent",
    )
    parser.add_argument(
        "--at",
        type=float,
        action="append",
        default=None,
        help="activation time(s) for digital faults in seconds "
        "(repeatable; default: half the duration)",
    )
    parser.add_argument(
        "--markdown", default=None, help="write the markdown report to this path"
    )
    parser.add_argument(
        "--csv", default=None, help="write the per-run CSV to this path"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized campaign with classification sanity assertions",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="campaign-store directory: commit every completed run atomically",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="load runs already committed to --store instead of re-executing",
    )
    parser.add_argument(
        "--interrupt-after",
        type=int,
        default=None,
        metavar="N",
        help="crash simulation: stop each worker after executing N runs "
        "(exit code 3; requires --store)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="collect telemetry and write a Chrome trace_event JSON file "
        "(inspect with repro-trace or chrome://tracing)",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write a self-contained HTML dashboard of the campaign "
        "(implies telemetry collection; see repro-report)",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="FILE",
        help="write the merged campaign telemetry as a markdown report "
        "(implies telemetry collection)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the live progress line and telemetry summary",
    )
    arguments = parser.parse_args(argv)
    if arguments.resume and arguments.store is None:
        parser.error("--resume needs --store to resume from")
    if arguments.interrupt_after is not None and arguments.store is None:
        parser.error("--interrupt-after without --store would lose all work")
    if arguments.interrupt_after is not None and arguments.interrupt_after < 0:
        parser.error("--interrupt-after must be non-negative")

    duration = 1.2e-4 if arguments.smoke else arguments.duration
    activation = arguments.at if arguments.at else [duration / 2.0]
    bench = benchmark_by_name(arguments.circuit)
    stimuli = {name: SquareWave(period=4e-5) for name in bench.stimuli}

    sentinel = silent_sentinel(bench.circuit())
    firmware = threshold_monitor_source(arguments.threshold_mv)
    if arguments.smoke:
        poll = assemble(firmware).symbols["poll"]
        faults = [
            sentinel,  # below any threshold: silent
            ParameterDriftFault(sentinel.branch, 2.0),  # visible analog divergence
            AdcStuckBitFault(bit=9, stuck_at=1),  # +512 mV: firmware must react
            MemoryBitFlipFault(bit=0),  # crossing-counter upset
            UartCorruptionFault(0x20),  # serial-link corruption
            InstructionCorruptionFault(poll),  # illegal opcode: crash
        ]
    else:
        faults = [
            sentinel,
            *analog_fault_universe(bench.circuit()),
            *digital_fault_universe(),
        ]

    spec = FaultCampaignSpec(
        faults=faults,
        activation_times=tuple(activation),
        scenarios=PlatformScenarioSpec(
            styles=tuple(arguments.styles.split(",")),
            firmwares={"threshold": firmware},
        ),
        seed=arguments.seed,
    )
    trace = bool(arguments.trace or arguments.telemetry or arguments.report)
    runner = FaultCampaignRunner(
        bench.build,
        bench.output,
        stimuli,
        workers=arguments.workers,
        nrmse_threshold=arguments.nrmse_threshold,
        store=arguments.store,
        resume=arguments.resume,
        interrupt_after=arguments.interrupt_after,
        trace=trace or None,
        progress=False if arguments.quiet else None,
    )
    total = len(spec)
    golden = len(spec.platform_scenarios())
    print(
        f"Running {total} platform runs ({total - golden} faulted) on "
        f"{bench.name} for {duration:g}s each..."
    )
    try:
        result = runner.run(spec, duration)
    except CampaignInterrupted as interrupt:
        # The store may be shared across campaigns (golden runs are reused),
        # so report its record count as what it is — not as "N of this
        # campaign's runs".
        print(f"INTERRUPTED: {interrupt}")
        print(
            f"store {arguments.store} now holds "
            f"{len(RunStore(arguments.store))} record(s); re-run with "
            f"--store {arguments.store} --resume to finish"
        )
        return 3

    if arguments.store:
        loaded = result.n_scenarios - result.executed_count
        print(
            f"campaign store {arguments.store}: {result.executed_count} runs "
            f"executed, {loaded} loaded (store holds "
            f"{len(RunStore(arguments.store))} records)"
        )
    counts = result.counts()
    print(f"fault coverage: {result.coverage_text()} non-silent")
    for verdict in VERDICTS:
        print(f"  {verdict:18s} {counts[verdict]}")
    print(f"  equivalence classes: {len(result.collapse())}")

    if arguments.markdown:
        with open(arguments.markdown, "w") as handle:
            handle.write(result.to_markdown() + "\n")
        print(f"wrote {arguments.markdown}")
    if arguments.csv:
        with open(arguments.csv, "w") as handle:
            handle.write(result.to_csv() + "\n")
        print(f"wrote {arguments.csv}")
    if arguments.report:
        from ..report import Dashboard, fault_section, telemetry_section

        dashboard = Dashboard(
            title=f"Fault campaign — {bench.name}",
            subtitle=f"{total} runs, {duration:g} s each",
        )
        dashboard.add(fault_section(result))
        if result.telemetry is not None:
            dashboard.add(telemetry_section(result.telemetry))
        print(f"wrote {dashboard.write(arguments.report)}")
    if trace and result.telemetry is not None:
        if arguments.trace:
            write_trace_json(arguments.trace, result.telemetry)
            print(f"wrote {arguments.trace}")
        if arguments.telemetry:
            with open(arguments.telemetry, "w") as handle:
                handle.write(result.telemetry.to_markdown() + "\n")
            print(f"wrote {arguments.telemetry}")
        if not arguments.quiet:
            report = result.telemetry
            line = (
                f"telemetry: {report.executed} executed in {report.wall:.2f}s "
                f"({report.throughput:.2f} runs/s"
            )
            utilization = report.worker_utilization
            if utilization is not None:
                line += f", {100.0 * utilization:.0f}% worker utilization"
            print(line + ")")

    if arguments.smoke:
        problems = smoke_problems(result)
        for problem in problems:
            print(f"SMOKE FAILURE: {problem}")
        if problems:
            return 1
        print("smoke campaign healthy: silent, detected and crashing faults present")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
