"""Same-instant event order: the DE kernel's rule and the CPU block driver.

Events at one instant fire in the order they were scheduled in simulated
time, then first-in first-out.  The block-stepped CPU schedules each wake as
of its previous clock cycle, which is when the one-instruction-per-tick model
schedules it, so an access cycle that shares an instant with an analog tick
sees the ADC in the same state at every block size.  The generated matrix
below crosses integration styles, analog/CPU period ratios (including exact
multiples, where the instants coincide), firmwares and block sizes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuits import rc_benchmark
from repro.core.flow import AbstractionFlow
from repro.network.circuit import canonical_quantity
from repro.sim import Kernel, SquareWave
from repro.vp import SmartSystemPlatform, threshold_monitor_source
from repro.vp.firmware import averaging_monitor_source

CPU_HZ = 20e6
CPU_PERIOD = 1.0 / CPU_HZ
#: Analog timestep as a multiple of the CPU period.
RATIOS = (1.0, 3.0, 1.0 / 3.0, 2.5, 20.0)
STYLES = ("python", "tdf", "de", "eln")
FIRMWARES = {
    "threshold": threshold_monitor_source(500),
    "averaging": averaging_monitor_source(),
}
BLOCKS = (1, 7, 256)
DURATION = 30e-6

BENCH = rc_benchmark(1)


class TestKernelSameInstantOrder:
    def test_earlier_scheduled_event_fires_first_whatever_the_queue_order(self):
        kernel = Kernel()
        log = []
        kernel.schedule_abs(1e-6, lambda: log.append("late"), 5e-7)
        kernel.schedule_abs(1e-6, lambda: log.append("early"), 2e-7)
        kernel.run()
        assert log == ["early", "late"]

    def test_equal_scheduling_times_fire_first_in_first_out(self):
        kernel = Kernel()
        log = []
        for name in "abc":
            kernel.schedule_abs(1e-6, lambda name=name: log.append(name), 0.0)
        kernel.schedule(1e-6, lambda: log.append("d"))
        kernel.run()
        assert log == ["a", "b", "c", "d"]

    def test_minus_infinity_fires_first_at_its_instant(self):
        kernel = Kernel()
        log = []
        kernel.schedule(1e-6, lambda: log.append("tick"))
        kernel.run(5e-7)
        kernel.schedule_abs(1e-6, lambda: log.append("injection"), -math.inf)
        kernel.run()
        assert log == ["injection", "tick"]

    def test_run_until_is_absolute_and_inclusive(self):
        kernel = Kernel()
        fired = []
        kernel.schedule_abs(2e-6, lambda: fired.append(kernel.now), 0.0)
        assert kernel.run_until(2e-6 - 1e-15) == pytest.approx(2e-6 - 1e-15)
        assert fired == []
        kernel.run_until(2e-6)
        assert fired == [pytest.approx(2e-6)]


def platform(style, ratio, firmware, blocks, models):
    timestep = CPU_PERIOD * ratio
    # Seeded stimulus per style and ratio; edges half a step off the grid.
    rng = np.random.default_rng([STYLES.index(style), RATIOS.index(ratio)])
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
        firmware=FIRMWARES[firmware],
        record_analog=True,
        cpu_block_cycles=blocks,
    )
    if style == "eln":
        vp.attach_analog(
            style, stimuli, circuit=BENCH.build(), output=canonical_quantity("out")
        )
    else:
        vp.attach_analog(style, stimuli, model=models[ratio])
    return vp


@pytest.fixture(scope="module")
def models():
    circuit = BENCH.circuit()
    return {
        ratio: AbstractionFlow(CPU_PERIOD * ratio)
        .abstract(circuit, "out", name=circuit.name)
        .model
        for ratio in RATIOS
    }


class TestBlockSteppedOrder:
    def test_analog_step_three_cpu_periods_reproducer(self):
        circuit = BENCH.circuit()
        model = AbstractionFlow(150e-9).abstract(circuit, "out", name=circuit.name).model
        outputs = set()
        for blocks in BLOCKS:
            vp = SmartSystemPlatform(
                cpu_clock_hz=20e6,
                analog_timestep=150e-9,
                firmware=averaging_monitor_source(),
                record_analog=True,
                cpu_block_cycles=blocks,
            )
            vp.attach_analog_python(
                model, {"vin": SquareWave(period=5.625e-6, duty=0.4, delay=75e-9)}
            )
            outputs.add(vp.run(40e-6).uart_output)
        assert len(outputs) == 1
        assert next(iter(outputs))[2] == "\x13"

    @pytest.mark.parametrize("ratio", RATIOS, ids=lambda ratio: f"ratio{ratio:.3g}")
    @pytest.mark.parametrize("style", STYLES)
    def test_every_block_size_matches_per_tick(self, style, ratio, models):
        for firmware in FIRMWARES:
            runs = [
                platform(style, ratio, firmware, blocks, models).run(DURATION)
                for blocks in BLOCKS
            ]
            reference = runs[0]
            for blocks, result in zip(BLOCKS[1:], runs[1:]):
                assert result.fingerprint() == reference.fingerprint(), (
                    firmware,
                    blocks,
                )
                assert result.analog_trace == reference.analog_trace, (firmware, blocks)
