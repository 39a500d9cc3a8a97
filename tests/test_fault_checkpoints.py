"""Golden checkpoints: time-gated faults run from clones of the golden run.

A digital fault with an activation time starts from a clone of its golden
run taken just before that time.  The guarantee is byte identity: every run's
``to_payload()`` equals the from-scratch run of the same job.  The campaigns
below are generated per integration style and firmware, with on-grid and
off-grid activation times and every digital fault kind (random-address RAM
flips and a code-word flip that crashes the CPU included), and run with one
and two workers, fresh and resumed.  The reference runs the same jobs one by
one with forking disabled, which is the from-scratch path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import rc_benchmark
from repro.core import abstract_circuit
from repro.fault import (
    AdcBitFlipFault,
    AdcStuckBitFault,
    FaultCampaignRunner,
    FaultCampaignSpec,
    InstructionCorruptionFault,
    MemoryBitFlipFault,
    RegisterTransientFault,
    UartCorruptionFault,
)
from repro.fault.campaign import FaultScenario
from repro.sim import SquareWave
from repro.sweep import PlatformScenarioSpec, PlatformSweepRunner
from repro.vp import ANALOG_STYLES, SmartSystemPlatform, threshold_monitor_source
from repro.vp.firmware import CROSSING_COUNTER_ADDRESS, averaging_monitor_source

TIMESTEP = 50e-9
WAVE = {"vin": SquareWave(period=1e-5, delay=TIMESTEP / 2.0)}
FIRMWARES = {
    "threshold": threshold_monitor_source(500),
    "averaging": averaging_monitor_source(),
}
BENCH = rc_benchmark(1)
#: Co-simulation is ~10x slower than the other styles: a shorter run and one
#: activation time keep its campaigns as cheap as the others'.
DURATIONS = {"cosim": 10e-6}
DURATION = 20e-6


class FromScratch(FaultScenario):
    """The same job with forking disabled: the from-scratch reference path."""

    def fork_time(self):
        return None


def loop_address(firmware: str) -> int:
    """An instruction address inside the firmware's polling loop."""
    platform = SmartSystemPlatform(firmware=FIRMWARES[firmware])
    platform.attach_analog_python(abstract_circuit(BENCH.build(), "out", TIMESTEP), WAVE)
    platform.run(5e-6)
    return platform.cpu.pc & ~0x3


def generated_campaign(style: str, firmware: str) -> "tuple[FaultCampaignSpec, float]":
    rng = np.random.default_rng(
        [ANALOG_STYLES.index(style), list(FIRMWARES).index(firmware)]
    )
    duration = DURATIONS.get(style, DURATION)
    steps = int(round(duration / TIMESTEP))
    on_grid = TIMESTEP * int(rng.integers(steps // 10, steps - steps // 10))
    off_grid = float(rng.uniform(0.1, 0.9)) * duration
    times = (off_grid,) if style == "cosim" else (on_grid, off_grid)
    faults = [
        AdcStuckBitFault(int(rng.integers(0, 10)), stuck_at=int(rng.integers(0, 2))),
        AdcBitFlipFault(int(rng.integers(0, 10))),
        UartCorruptionFault(int(rng.integers(1, 256))),
        MemoryBitFlipFault(address=None, bit=int(rng.integers(0, 8))),
        MemoryBitFlipFault(CROSSING_COUNTER_ADDRESS, bit=int(rng.integers(0, 8))),
        RegisterTransientFault(int(rng.integers(1, 32)), bit=int(rng.integers(0, 32))),
        InstructionCorruptionFault(loop_address(firmware)),
    ]
    spec = FaultCampaignSpec(
        faults=faults,
        activation_times=times,
        scenarios=PlatformScenarioSpec(
            styles=(style,), firmwares={firmware: FIRMWARES[firmware]}
        ),
        seed=int(rng.integers(2**31)),
    )
    return spec, duration


def campaign_runner(**options) -> FaultCampaignRunner:
    return FaultCampaignRunner(BENCH.build, "out", WAVE, progress=False, **options)


def from_scratch_payloads(
    spec: FaultCampaignSpec, duration: float, **options
) -> list[dict]:
    """Every job of ``spec`` through the from-scratch path, one by one."""
    scenarios = [FromScratch(**vars(run)) for run in spec.expand()]
    runner = PlatformSweepRunner(
        BENCH.build, "out", WAVE, capture_errors=True, progress=False, **options
    )
    result = runner.run(scenarios, duration, firmwares=spec.firmware_table())
    return [run.to_payload() for run in result.results]


def payloads(result) -> list[dict]:
    return [run.to_payload() for run in result.results]


class TestPlatformClone:
    def platform(self) -> SmartSystemPlatform:
        platform = SmartSystemPlatform(
            firmware=FIRMWARES["averaging"], record_analog=True
        )
        platform.attach_analog_python(
            abstract_circuit(BENCH.build(), "out", TIMESTEP), WAVE
        )
        return platform

    def test_parent_and_clone_run_on_independently(self):
        parent = self.platform()
        parent.run(10e-6)
        clone = parent.clone()
        at_clone = clone.snapshot().to_payload()
        ram = bytes(clone.memory._data)
        # The parent running on leaves the clone where it was...
        continued = parent.run(10e-6).to_payload()
        assert clone.snapshot().to_payload() == at_clone
        assert bytes(clone.memory._data) == ram
        # ...and the clone running on leaves the parent where it was, while
        # arriving at exactly the parent's state.
        at_parent = parent.snapshot().to_payload()
        assert clone.run(10e-6).to_payload() == continued
        assert parent.snapshot().to_payload() == at_parent
        assert clone.cpu.registers == parent.cpu.registers
        assert clone.cpu.memory is clone.memory

    def test_advance_before_stops_short_of_the_instant(self):
        platform = self.platform()
        fired = []
        at = 7.3e-6
        kernel = platform.kernel
        kernel.schedule_abs(at, lambda: fired.append("at"), 0.0)
        kernel.schedule_abs(at - 1e-15, lambda: fired.append("before"), 0.0)
        platform.advance_before(at)
        assert fired == ["before"]
        # CPU cycles fire every 50 ns from 50 ns: those before 7.3 us ran.
        assert platform.cpu.instruction_count == 145
        platform.run_until(at)
        assert fired == ["before", "at"]
        assert platform.cpu.instruction_count == 146


class TestCheckpointedCampaigns:
    @pytest.mark.parametrize("style", ANALOG_STYLES)
    def test_every_run_matches_its_from_scratch_run(self, style, tmp_path):
        for firmware in FIRMWARES:
            spec, duration = generated_campaign(style, firmware)
            reference = from_scratch_payloads(spec, duration)
            assert any(payload["crashed"] for payload in reference)
            for workers in (1, 2):
                store = tmp_path / f"{firmware}-{workers}"
                fresh = campaign_runner(workers=workers, store=store, trace=True).run(
                    spec, duration
                )
                counters = fresh.telemetry.counters
                assert counters["platform.checkpoints"] >= len(spec.activation_times)
                assert counters["de.runs"] == len(spec) + counters["platform.checkpoints"]
                assert payloads(fresh) == reference, (firmware, workers)
                resumed = campaign_runner(workers=workers, store=store, resume=True).run(
                    spec, duration
                )
                assert resumed.executed_count == 0
                assert payloads(resumed) == reference, (firmware, workers)

    def test_a_golden_prefix_that_crashes_falls_back_to_from_scratch_runs(self):
        # The firmware runs a countdown, then executes an unimplemented
        # opcode: every run crashes at the same instant, before the faults
        # activate, so the golden prefix itself raises.
        firmware = """
        main:   li    $t0, 60
        spin:   addiu $t0, $t0, -1
                bne   $t0, $zero, spin
                .word 0xFFFFFFFF
        """
        spec = FaultCampaignSpec(
            faults=[
                MemoryBitFlipFault(CROSSING_COUNTER_ADDRESS, bit=1),
                RegisterTransientFault(8, bit=3),
            ],
            activation_times=(12e-6, 15e-6),
            scenarios=PlatformScenarioSpec(
                styles=("python",), firmwares={"crashing": firmware}
            ),
        )
        reference = from_scratch_payloads(spec, DURATION)
        result = campaign_runner(trace=True).run(spec, DURATION)
        assert payloads(result) == reference
        assert all(
            payload["crashed"].startswith("CpuFault") for payload in reference
        )
        # Only the first prefix segment ran; every faulted run then ran from
        # scratch.
        counters = result.telemetry.counters
        assert counters["platform.checkpoints"] == 1
        assert counters["de.runs"] == len(spec) + 1

    def test_a_misaligned_counter_pointer_crashes_alike_on_every_path(self):
        # $s2 bit 1 at 1 us moves the threshold firmware's counter pointer
        # two bytes into its word just before a crossing: the counter store
        # raises the MIPS-I address error.  Campaign runs (stream-fed,
        # forked from the golden prefix) and from-scratch push-fed runs, at
        # bursts of 1 and 4096 instructions, all record the same crash.
        spec = FaultCampaignSpec(
            faults=[RegisterTransientFault(18, bit=1)],
            activation_times=(1e-6,),
            scenarios=PlatformScenarioSpec(
                styles=("python",), firmwares={"threshold": FIRMWARES["threshold"]}
            ),
        )
        outcomes = []
        for blocks in (1, 4096):
            campaign = campaign_runner(cpu_block_cycles=blocks).run(spec, DURATION)
            outcomes.append(payloads(campaign))
            outcomes.append(from_scratch_payloads(spec, DURATION, cpu_block_cycles=blocks))
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])
        assert [payload["crashed"] for payload in outcomes[0]] == [
            None,
            "CpuFault: address error (AdES): word store at misaligned address "
            "0x0000f002, pc 0x00000050",
        ]
