#!/usr/bin/env python3
"""The repository benchmark: four paper-shaped workloads, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics,
writing the traced run's spans and counters to
``perfbench/out/trace-<workload>-seed<seed>.json`` (Chrome ``trace_event``).
Every line before the last is for people; the last line is the JSON result.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("table3", "sensor_dsp", "fault_campaign", "analog_sweep")
#: Set-ups per run; ``setup_s`` is the median import time of a fresh
#: interpreter plus the median in-process set-up, in reference seconds.
SETUP_REPEATS = 7
#: Times importing everything the benchmark uses, in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import batch_workloads, platform_workloads; print(time.perf_counter() - start)"
)
#: Layers whose self times a traced round attributes, as ``<layer>.s``; with
#: ``other`` they add up to the traced wall.  Reported as ``share.<layer>``.
LAYERS = (
    "de", "iss", "bus", "analog", "platform", "abstract", "compile", "batch",
    "store_commit", "store_load", "classify", "dispatch", "other",
)
#: Counts per traced round; a workload that skips a layer reports 0.
COUNTS = (
    "de.events", "de.deltas", "iss.instructions", "iss.bursts", "iss.superblock_hits",
    "bus.accesses", "adc.samples", "analog.steps", "batch.steps",
    "core.abstractions", "core.compiles", "core.cache_hits",
    "store.commits", "store.hits", "store.misses",
    "fault.verdicts.silent", "fault.verdicts.trace-divergent",
    "fault.verdicts.firmware-detected", "fault.verdicts.lint-rejected",
    "fault.verdicts.crash",
)
#: Useful outcomes over attempts: ratio -> (numerator, counts summed below).
RATIOS = {
    "iss.superblock_hit_ratio": ("iss.superblock_hits", ("iss.bursts",)),
    "core.compile_hit_ratio": ("core.cache_hits", ("core.cache_hits", "core.compiles")),
    "store.hit_ratio": ("store.hits", ("store.hits", "store.misses")),
}
#: Fractions a workload measures directly (0 where it has no such layer).
FRACTIONS = ("sweep.worker_busy_frac",)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def per_layer_metrics(rounds: list[dict], traced: list[float], untraced: list[float],
                      setup: dict, checks) -> dict:
    """The per-layer metrics: the traced rounds' means, as in BENCHMARK.json."""
    known = {f"{layer}.s" for layer in LAYERS} | set(COUNTS) | set(FRACTIONS)
    unknown = sorted({name for layer in rounds for name in layer} - known)
    checks.expect(not unknown, f"workload reports unlisted layer metrics {unknown}")
    mean = {
        name: statistics.fmean(layer.get(name, 0.0) for layer in rounds) for name in known
    }
    wall = statistics.fmean(traced)
    attributed = sum(mean[f"{layer}.s"] for layer in LAYERS)
    checks.expect(
        abs(attributed - wall) <= 1e-6 * wall,
        f"self times add up to {attributed} s, not the traced wall {wall} s",
    )
    metrics = {f"share.{layer}": (mean[f"{layer}.s"] / wall, "fraction") for layer in LAYERS}
    metrics.update({name: (mean[name], "count") for name in COUNTS})
    for name, (numerator, denominator) in RATIOS.items():
        total = sum(mean[part] for part in denominator)
        metrics[name] = (mean[numerator] / total if total else 0.0, "fraction")
    metrics.update({name: (mean[name], "fraction") for name in FRACTIONS})
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_frac"] = (sum(traced) / sum(untraced[: len(traced)]) - 1.0, "fraction")
    metrics.update({name: (value, "s") for name, value in setup.items()})
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())}


def make_workload(name: str, seed: int, workdir: Path):
    from batch_workloads import AnalogSweep, FaultCampaign
    from platform_workloads import SensorDsp, Table3

    if name == "table3":
        return Table3(seed)
    if name == "sensor_dsp":
        return SensorDsp(seed)
    if name == "fault_campaign":
        return FaultCampaign(seed, workdir)
    return AnalogSweep(seed)


def run_round(workload, checks, traced: bool):
    """One round; a round that raises counts as one failed unit."""
    from repro.obs import disable_tracing, enable_tracing

    if traced:
        enable_tracing()
    try:
        return workload.round(checks, traced)
    except Exception as error:  # noqa: BLE001 - any failure is a failed unit
        traceback.print_exc()
        checks.expect(False, f"round raised {type(error).__name__}: {error}")
        return None
    finally:
        if traced:
            disable_tracing()


def import_seconds() -> float:
    """Host seconds a fresh interpreter takes to import the benchmark."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(SRC)],
        capture_output=True, text=True, check=True,
    )
    return float(probe.stdout)


def measure(args, workdir: Path) -> dict:
    from batch_workloads import abstraction_probe
    from harness import Checks, calibrated_seconds, clock, peak_rss_mb, span_seconds
    from repro.core.codegen import clear_cache
    from repro.obs import TRACER, disable_tracing, enable_tracing

    workload = make_workload(args.workload, args.seed, workdir)
    setups = []
    for _ in range(SETUP_REPEATS):
        clear_cache()
        setups.append(calibrated_seconds(workload.setup))

    setup_layers: dict[str, float] = {}
    if args.trace:
        clear_cache()
        enable_tracing(reset=True)
        with abstraction_probe():
            workload.setup()
        disable_tracing()
        events = TRACER.collect()["events"]
        setup_layers["setup.abstract_s"] = span_seconds(events, "bench.core.abstract")
        setup_layers["setup.compile_s"] = sum(
            span_seconds(events, span) for span in ("codegen.compile", "codegen.native.compile")
        )

    checks = Checks()
    gc.collect()
    untraced: list[float] = []
    traced: list[float] = []
    rounds: list[dict] = []
    loop_start = clock()
    deadline = loop_start + args.seconds
    while True:
        outcome = run_round(workload, checks, False)
        if outcome is not None:
            untraced.append(outcome[0])
        if args.trace:
            start = clock()
            outcome = run_round(workload, checks, True)
            if outcome is not None:
                TRACER.complete("bench.round", start, clock() - start, "bench")
                traced.append(outcome[0])
                rounds.append(outcome[1])
        # Collect each round's garbage outside the timed units, so neither
        # the timings nor peak_rss_mb depend on when the collector runs.
        gc.collect()
        if clock() >= deadline:
            break

    info: dict = {"rounds": len(untraced), "setups_s": setups}
    try:
        workload.verify(checks, info)
    except Exception as error:  # noqa: BLE001 - a failed oracle is a failed unit
        traceback.print_exc()
        checks.expect(False, f"oracle raised {type(error).__name__}: {error}")

    metrics: dict[str, dict] = {}
    if not args.trace:
        # Read the peak before the import probes add their own children.
        peak = peak_rss_mb()
        imports = [calibrated_seconds(import_seconds) for _ in range(SETUP_REPEATS)]
        info["imports_s"] = imports
        setup_s = statistics.median(imports) + statistics.median(setups)
        rates = workload.rates
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["sim_ms_per_s"] = {"value": statistics.median(rates.rounds), "unit": "ms/s"}
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
        info["samples.sim_ms_per_s"] = len(rates.rounds)
        for part, values in rates.parts.items():
            info[f"sim_ms_per_s.{part}"] = statistics.median(values)
            info[f"host_sim_ms_per_s.{part}"] = statistics.median(rates.host_parts[part])
    elif rounds:
        metrics = per_layer_metrics(rounds, traced, untraced, setup_layers, checks)
        write_chrome_trace(args, workload, traced, checks, info)
    info["failed_frac"] = checks.failed / max(checks.attempted, 1)
    return {"checks": checks, "metrics": metrics, "info": info}


def write_chrome_trace(args, workload, traced_walls, checks, info) -> None:
    """Write the traced run's spans and counters; validate the file."""
    from repro.obs import TRACER, TelemetryReport
    from repro.obs.export import validate_trace_events, write_trace_json

    report = TelemetryReport.merge(
        f"perfbench.{args.workload}",
        [TRACER.collect()],
        scenarios=len(traced_walls),
        executed=len(traced_walls),
        wall=sum(traced_walls),
        workers=1,
    )
    report.events.extend(workload.extra_events)
    report.events.sort(key=lambda event: event["ts"])
    path = write_trace_json(OUT / f"trace-{args.workload}-seed{args.seed}.json", report)
    problems = validate_trace_events(json.loads(path.read_text(encoding="utf-8")))
    checks.expect(not problems, f"trace file {path} is invalid: {problems[:3]}")
    info["trace_file"] = str(path.relative_to(HERE.parent))
    info["trace_events"] = len(report.events)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC} holds no repro package; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT))
    # Native kernels are compiled under TMPDIR: keep them inside the checkout.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    sys.path.insert(0, str(SRC))
    try:
        outcome = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks, metrics, info = outcome["checks"], outcome["metrics"], outcome["info"]
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    for key, value in info.items():
        print(f"  info {key}: {json.dumps(value, default=str)}")
    for problem in checks.problems:
        print(f"  FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
