#!/usr/bin/env python3
"""Cross-check the traced layer attribution against cProfile.

Runs one Table III ``python`` unit and one ``sensor_dsp`` unit twice: once
with the benchmark's timing probes, once under :mod:`cProfile`.  The profile's
own-time per function is folded into the benchmark's layer names by module
path (built-in calls go to their callers' layers), and both sets of shares
are printed side by side.  Run from the repository root::

    python3 perfbench/profile_layers.py --seed 1
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness import Checks  # noqa: E402
from platform_workloads import SensorDsp, Table3, layer_split, new_tallies  # noqa: E402

LAYERS = ("de", "iss", "bus", "analog", "other")
#: cProfile-only split of ``de``: platform glue in ``repro/vp/platform.py``
#: (CPU block driver, ADC sampler, analog tick) runs inside ``Kernel.run``,
#: so the traced run counts it as kernel self time.
GLUE = "de:glue"


def layer_of(filename: str, function: str) -> str:
    """The benchmark layer that owns a profiled function."""
    if filename.startswith("<generated:"):
        return "analog"
    if filename.startswith("<superblock:"):
        return "iss"
    path = filename.replace("\\", "/")
    if "/repro/vp/mips/" in path:
        return "iss"
    if path.endswith(("/repro/vp/apb.py", "/repro/vp/uart.py")):
        return "bus"
    if path.endswith("/repro/vp/adc_bridge.py"):
        return "bus" if function == "read_register" else "de"
    if path.endswith("/repro/vp/platform.py"):
        return GLUE
    if "/repro/sim/" in path:
        return "de"
    return "other"


def profile_shares(stats: pstats.Stats) -> dict[str, float]:
    seconds = dict.fromkeys(LAYERS + (GLUE,), 0.0)
    for (filename, _, function), (_, _, own, _, callers) in stats.stats.items():
        if filename != "~":
            seconds[layer_of(filename, function)] += own
            continue
        # A built-in: split its own time across the layers of its callers.
        for (caller_file, _, caller_function), entry in callers.items():
            seconds[layer_of(caller_file, caller_function)] += entry[2]
    total = sum(seconds.values())
    shares = {layer: value / total for layer, value in seconds.items()}
    shares["de"] += shares[GLUE]
    return shares


def traced_shares(split: dict) -> dict[str, float]:
    seconds = {layer: split[f"{layer}.s"] for layer in LAYERS}
    total = sum(seconds.values())
    return {layer: value / total for layer, value in seconds.items()}


def compare(workload, style: str, duration: float) -> None:
    workload.setup()
    checks = Checks()
    tallies = new_tallies()
    from repro.obs import TRACER, disable_tracing, enable_tracing

    enable_tracing(reset=True)
    before = dict(TRACER.counters)
    result, platform, _, unit_wall = workload.run_unit(style, duration, checks, tallies)
    disable_tracing()
    traced = traced_shares(layer_split(tallies, unit_wall, result, platform, before))
    profiler = cProfile.Profile()
    profiler.enable()
    workload.run_unit(style, duration, checks, None)
    profiler.disable()
    profiled = profile_shares(pstats.Stats(profiler))
    print(f"\n{workload.name} ({style}, {duration * 1e3:g} ms simulated)")
    print(f"  {'layer':8s} {'traced':>8s} {'cProfile':>9s}")
    for layer in LAYERS:
        print(f"  {layer:8s} {100 * traced[layer]:7.1f}% {100 * profiled[layer]:8.1f}%")
    print(f"  (of de in cProfile: platform glue {100 * profiled[GLUE]:.1f}%)")
    if checks.failed:
        print(f"  checks failed: {checks.problems}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    compare(Table3(args.seed), "python", 1e-3)
    compare(SensorDsp(args.seed), "python", 0.1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
