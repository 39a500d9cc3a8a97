"""Same-instant event order: the DE kernel's rule and the CPU block driver.

Events at one instant fire in the order they were scheduled in simulated
time, then first-in first-out.  The block-stepped CPU schedules each wake as
of its previous clock cycle, which is when the one-instruction-per-tick model
schedules it, so an access cycle that shares an instant with an analog tick
sees the ADC in the same state at every block size.  The generated matrix
below crosses integration styles, analog/CPU period ratios (including exact
multiples, where the instants coincide), firmwares and block sizes.

A burst runs ahead of the kernel clock, so an instruction that raises after
others retired raises again from an event on its own clock cycle, keyed as
its per-tick wake.  The generated crash matrix arms seeded code-word
corruptions and register flips on the same platforms, ``python`` pushed and
stream-fed, and requires every crashed run's ``to_payload()`` (time, ADC
sample count and trace) to be block 1's.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuits import rc_benchmark
from repro.core.flow import AbstractionFlow
from repro.errors import ReproError, SimulationError
from repro.fault import InstructionCorruptionFault, RegisterTransientFault
from repro.network.circuit import canonical_quantity
from repro.sim import Kernel, SquareWave
from repro.sim.de.simtime import RESOLUTION, quantize
from repro.vp import SmartSystemPlatform, assemble, threshold_monitor_source
from repro.vp.firmware import (
    ADC_COUNT_OFFSET,
    ADC_DATA_OFFSET,
    CROSSING_COUNTER_ADDRESS,
    averaging_monitor_source,
)
from repro.vp.platform import python_stream

CPU_HZ = 20e6
CPU_PERIOD = 1.0 / CPU_HZ
#: Analog timestep as a multiple of the CPU period.
RATIOS = (1.0, 3.0, 1.0 / 3.0, 2.5, 20.0)
STYLES = ("python", "tdf", "de", "eln")


def fir_source(taps: int) -> str:
    """A FIR over a RAM ring of the latest ``taps`` ADC samples: twelve
    instructions per tap between two ADC polls."""
    ring_mask = 4 * taps - 1
    table = "\n".join(f"        .word {3 * tap - 40}" for tap in range(taps))
    return f"""        .text
main:
        lui   $t0, 0x1000
        li    $s0, 0
        li    $s2, {CROSSING_COUNTER_ADDRESS:#x}
        li    $s3, 0x8000            # the sample ring
        li    $s4, 0
        la    $s5, coeffs
poll:
        lw    $t5, {ADC_COUNT_OFFSET:#x}($t0)
        beq   $t5, $s0, poll
        move  $s0, $t5
        lw    $t1, {ADC_DATA_OFFSET:#x}($t0)
        addu  $t2, $s3, $s4
        sw    $t1, 0($t2)
        addiu $s4, $s4, 4
        andi  $s4, $s4, {ring_mask}
        li    $t3, 0
        li    $t4, 0
        move  $t6, $s4
tap:
        addu  $t7, $s5, $t4
        lw    $t8, 0($t7)
        addu  $t9, $s3, $t6
        lw    $t9, 0($t9)
        mult  $t8, $t9
        mflo  $t7
        addu  $t3, $t3, $t7
        addiu $t6, $t6, 4
        andi  $t6, $t6, {ring_mask}
        addiu $t4, $t4, 4
        slti  $t7, $t4, {4 * taps}
        bne   $t7, $zero, tap
        sra   $t3, $t3, 4
        sw    $t3, 0($s2)
        j     poll
coeffs:
{table}
"""


#: The FIR works longer than 256 instructions per sample.
FIRMWARES = {
    "threshold": threshold_monitor_source(500),
    "averaging": averaging_monitor_source(),
    "fir": fir_source(32),
}
#: Registers each firmware keeps an address or an address offset in.
ADDRESS_REGISTERS = {
    "threshold": (8, 18),
    "averaging": (8, 19),
    "fir": (8, 10, 14, 15, 18, 19, 20, 21, 25),
}
BLOCKS = (1, 7, 256, 4096)
DURATION = 30e-6
#: Generated crash cases per integration style.
CRASH_CASES = 30

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
        assert kernel.run(until=2e-6 - 1e-15) == pytest.approx(2e-6 - 1e-15)
        assert fired == []
        kernel.run(until=2e-6)
        assert fired == [pytest.approx(2e-6)]

    def test_run_takes_a_duration_or_an_end_time_not_both(self):
        with pytest.raises(SimulationError, match="not both"):
            Kernel().run(1e-6, until=2e-6)


def platform(style, ratio, firmware, blocks, models, stream=False):
    """A seeded platform; ``stream`` feeds the ``python`` style's ADC from a
    precomputed analog stream instead of the analog ticker."""
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
    if stream:
        vp.attach_analog_stream(python_stream(models[ratio], stimuli, timestep, DURATION))
    elif style == "eln":
        vp.attach_analog(
            style, stimuli, circuit=BENCH.build(), output=canonical_quantity("out")
        )
    else:
        vp.attach_analog(style, stimuli, model=models[ratio])
    return vp


def crash_case(style, index):
    """A seeded firmware, period ratio, fault and activation time."""
    # Seeds past the per-ratio stimulus seeds of ``platform``.
    rng = np.random.default_rng([STYLES.index(style), len(RATIOS) + index])
    firmware = str(rng.choice(list(FIRMWARES)))
    ratio = float(rng.choice(RATIOS))
    program = assemble(FIRMWARES[firmware])
    if rng.random() < 0.5:
        # A word of the main loop, which runs after the activation time.
        end = program.symbols.get("coeffs", len(program.to_bytes()))
        first = program.symbols["poll"]
        fault = InstructionCorruptionFault(4 * int(rng.integers(first // 4, end // 4)))
    else:
        fault = RegisterTransientFault(
            int(rng.choice(ADDRESS_REGISTERS[firmware])),
            int(rng.choice([0, 1, 15, 16, 20, 28, 31])),
        )
    at = float(rng.uniform(0.05, 0.5)) * DURATION
    if rng.random() < 0.5:
        at = round(at / CPU_PERIOD) * CPU_PERIOD  # on a CPU cycle
    return firmware, ratio, fault, at


def payload(vp) -> dict:
    """A run's payload; a crash is captured as the campaigns capture it."""
    try:
        return vp.run(DURATION).to_payload()
    except ReproError as error:
        return vp.snapshot(crashed=f"{type(error).__name__}: {error}").to_payload()


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

    @pytest.mark.parametrize("style", STYLES)
    def test_crashed_runs_match_per_tick(self, style, models):
        runs = [(blocks, False) for blocks in BLOCKS]
        if style == "python":
            runs += [(blocks, True) for blocks in BLOCKS]
        crashes = []
        for index in range(CRASH_CASES):
            firmware, ratio, fault, at = case = crash_case(style, index)
            payloads = []
            for blocks, stream in runs:
                vp = platform(style, ratio, firmware, blocks, models, stream)
                fault.arm(vp, at, None)
                payloads.append(payload(vp))
            for (blocks, stream), result in zip(runs[1:], payloads[1:]):
                assert result == payloads[0], (index, case, blocks, stream)
            crashes.append(payloads[0]["crashed"])
        crashed = [crash for crash in crashes if crash is not None]
        assert len(crashed) >= CRASH_CASES // 4, crashes
        assert {crash.split(":")[0] for crash in crashed} == {"CpuFault", "BusError"}

    def test_register_flip_reproducer(self, models):
        """``$s2`` bit 16 at 1 us sends the threshold firmware's counter
        store outside RAM one cycle later: it crashes at 1.05 us with 20
        samples at every block size.  A burst that reported its own start
        gave 1.00 us and 19 samples."""
        outcomes = set()
        for blocks in BLOCKS:
            vp = SmartSystemPlatform(
                firmware=threshold_monitor_source(500), cpu_block_cycles=blocks
            )
            vp.attach_analog_python(models[1.0], {"vin": SquareWave(period=40e-6)})
            RegisterTransientFault(18, 16).arm(vp, 1e-6, None)
            with pytest.raises(ReproError, match="outside the 65536-byte RAM"):
                vp.run(5e-6)
            result = vp.snapshot()
            outcomes.add((result.simulated_time, result.analog_samples, result.instructions))
        assert len(outcomes) == 1
        (time, samples, _), = outcomes
        assert time == pytest.approx(1.05e-6) and samples == 20


class TestPlatformSchedulerEntry:
    def test_every_platform_path_enters_through_kernel_run(self, models):
        # Probes time the scheduler by wrapping ``kernel.run`` on the
        # instance; each platform path must reach it with its absolute end.
        vp = platform("python", 1.0, "threshold", 256, models)
        calls = []
        run = vp.kernel.run

        def wrapper(*args, **kwargs):
            calls.append((args, kwargs))
            return run(*args, **kwargs)

        vp.kernel.run = wrapper
        vp.run(1e-6)
        vp.run_until(3e-6)
        vp.advance_before(5e-6)
        now = vp.kernel.now
        vp.run(1e-6)
        assert calls == [
            ((), {"until": 1e-6}),
            ((), {"until": 3e-6}),
            ((), {"until": quantize(5e-6) - RESOLUTION}),
            ((), {"until": now + 1e-6}),
        ]
        assert vp.kernel.now == quantize(now + 1e-6)
