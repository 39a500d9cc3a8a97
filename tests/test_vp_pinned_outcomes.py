"""Pinned platform outcomes: every analog style, period ratio and firmware.

The block-size matrix in ``test_vp_event_order`` compares runs within one
tree, so an event-order change shared by every block size would pass it.
This test compares against a committed table instead, recorded on the
kernel that gave every periodic process its own heap entry:

* the run fingerprint;
* the kernel's ``event_count`` and ``delta_count``;
* a SHA-256 of the ADC trace packed as little-endian float64.

It covers every style in ``ANALOG_STYLES`` crossed with the event-order
test's analog/CPU period ratios and both firmwares, at the default burst
cap, plus the isolated ``run_de_model`` and ``run_tdf_model`` traces of RC1.

Re-record the table only for a deliberate change of simulated behaviour:
``PYTHONPATH=src python tests/test_vp_pinned_outcomes.py --record``.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import rc_benchmark
from repro.core.flow import AbstractionFlow
from repro.network.circuit import canonical_quantity
from repro.sim import SquareWave
from repro.sim.runners import run_de_model, run_tdf_model
from repro.vp import SmartSystemPlatform, threshold_monitor_source
from repro.vp.firmware import averaging_monitor_source
from repro.vp.platform import ANALOG_STYLES

TABLE = Path(__file__).parent / "corpus" / "platform_outcomes.json"

CPU_HZ = 20e6
CPU_PERIOD = 1.0 / CPU_HZ
#: Analog timestep as a multiple of the CPU period (as in test_vp_event_order).
RATIOS = (1.0, 3.0, 1.0 / 3.0, 2.5, 20.0)
FIRMWARES = ("threshold", "averaging")
DURATION = 60e-6
#: Co-simulation re-solves the reference engine every step; it gets less time.
COSIM_DURATION = 20e-6
#: Isolated-model runs: RC1 at the paper's timestep.
MODEL_TIMESTEP = 50e-9
MODEL_DURATION = 100e-6

BENCH = rc_benchmark(1)


def trace_digest(values) -> str:
    """SHA-256 of ``values`` packed as little-endian float64."""
    data = struct.pack(f"<{len(values)}d", *values)
    return hashlib.sha256(data).hexdigest()


def firmware(name: str) -> str:
    return threshold_monitor_source(500) if name == "threshold" else averaging_monitor_source()


def abstract(timestep: float):
    circuit = BENCH.circuit()
    return AbstractionFlow(timestep).abstract(circuit, "out", name=circuit.name).model


def platform_outcome(style: str, ratio: float, firmware_name: str, model) -> dict:
    timestep = CPU_PERIOD * ratio
    # Seeded stimulus per style and ratio; edges half a step off the grid.
    rng = np.random.default_rng([ANALOG_STYLES.index(style), RATIOS.index(ratio)])
    stimuli = {
        "vin": SquareWave(
            period=timestep * float(rng.uniform(20.0, 60.0)),
            duty=float(rng.uniform(0.3, 0.7)),
            delay=timestep / 2.0,
        )
    }
    vp = SmartSystemPlatform(
        cpu_clock_hz=CPU_HZ,
        analog_timestep=timestep,
        firmware=firmware(firmware_name),
        record_analog=True,
    )
    if style in ("eln", "cosim"):
        vp.attach_analog(
            style, stimuli, circuit=BENCH.build(), output=canonical_quantity("out")
        )
    else:
        vp.attach_analog(style, stimuli, model=model)
    result = vp.run(COSIM_DURATION if style == "cosim" else DURATION)
    return {
        "fingerprint": list(result.fingerprint()),
        "events": vp.kernel.event_count,
        "deltas": vp.kernel.delta_count,
        "adc_trace": trace_digest(result.analog_trace),
    }


def model_outcomes() -> dict:
    model = abstract(MODEL_TIMESTEP)
    stimuli = {"vin": SquareWave(period=2.5e-6, duty=0.4, delay=MODEL_TIMESTEP / 2.0)}
    outcomes = {}
    for name, runner in (("run_de_model", run_de_model), ("run_tdf_model", run_tdf_model)):
        trace = runner(model, stimuli, MODEL_DURATION)[model.outputs[0]]
        outcomes[name] = {
            "samples": len(trace),
            "times": trace_digest(list(trace.times)),
            "values": trace_digest(list(trace.values)),
        }
    return outcomes


def case_key(style: str, ratio: float, firmware_name: str) -> str:
    return f"{style}/ratio{ratio:.3g}/{firmware_name}"


def record() -> dict:
    """Every outcome of the table, computed on the current tree."""
    models = {ratio: abstract(CPU_PERIOD * ratio) for ratio in RATIOS}
    platforms = {
        case_key(style, ratio, name): platform_outcome(style, ratio, name, models[ratio])
        for style in ANALOG_STYLES
        for ratio in RATIOS
        for name in FIRMWARES
    }
    return {"platforms": platforms, "models": model_outcomes()}


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(TABLE.read_text())


@pytest.fixture(scope="module")
def models():
    return {ratio: abstract(CPU_PERIOD * ratio) for ratio in RATIOS}


@pytest.mark.parametrize("ratio", RATIOS, ids=lambda ratio: f"ratio{ratio:.3g}")
@pytest.mark.parametrize("style", ANALOG_STYLES)
def test_platform_outcomes_match_the_pinned_table(style, ratio, table, models):
    for name in FIRMWARES:
        key = case_key(style, ratio, name)
        assert platform_outcome(style, ratio, name, models[ratio]) == table["platforms"][key], key


def test_isolated_model_traces_match_the_pinned_table(table):
    assert model_outcomes() == table["models"]


def test_table_covers_every_case(table):
    assert sorted(table["platforms"]) == sorted(
        case_key(style, ratio, name)
        for style in ANALOG_STYLES
        for ratio in RATIOS
        for name in FIRMWARES
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: tests/test_vp_pinned_outcomes.py --record")
    TABLE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
