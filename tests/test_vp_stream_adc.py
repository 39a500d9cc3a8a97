"""The stream-fed ADC: campaign runs read precomputed analog samples.

A fault campaign's ``python`` runs get no analog ticker.  Their ADC answers
each access from :func:`~repro.vp.platform.python_stream`, counting the
samples the ticker would have pushed by the accessing event.  The guarantee
is byte identity with push mode, checked here two ways:

* the ``python`` rows of ``tests/corpus/platform_outcomes.json`` (five
  analog/CPU period ratios, two firmwares): equal fingerprints and ADC-trace
  hashes.  Kernel counters are not compared, as the tick events are gone;
* generated campaigns on CPU-clock/analog-step pairs whose grids coincide,
  with the analog step longer than, shorter than and equal to the CPU
  period.  Digital faults strike at a shared tick/CPU instant, at a tick
  instant and off the grids; a code-word flip crashes the CPU on the shared
  instant, and a poke outside RAM crashes the injection itself.  Every
  run's ``to_payload()`` must equal push mode's, on one and two workers.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import rc_benchmark
from repro.core.flow import AbstractionFlow
from repro.fault import (
    AdcBitFlipFault,
    AdcStuckBitFault,
    FaultCampaignRunner,
    FaultCampaignSpec,
    InstructionCorruptionFault,
    MemoryBitFlipFault,
    ParameterDriftFault,
    RegisterTransientFault,
    UartCorruptionFault,
)
from repro.fault.campaign import FaultableCircuitFactory
from repro.fault.models import DigitalFault
from repro.sim import SquareWave
from repro.sweep import PlatformScenarioSpec, PlatformSweepRunner
from repro.vp import SmartSystemPlatform, threshold_monitor_source
from repro.vp.firmware import averaging_monitor_source
from repro.vp.platform import ANALOG_STYLES, RAM_SIZE, python_stream

BENCH = rc_benchmark(1)
FIRMWARES = {
    "threshold": threshold_monitor_source(500),
    "averaging": averaging_monitor_source(),
}


@dataclass(frozen=True)
class OutsideRamPoke(DigitalFault):
    """A fault whose injection writes past the end of RAM: its run crashes
    with the injection's own ``BusError``."""

    kind = "outside-ram"

    @property
    def name(self) -> str:
        return "poke:ram-end"

    def arm(self, platform, at_time, rng) -> None:
        memory = platform.memory
        platform.schedule_injection(at_time, lambda: memory.poke(RAM_SIZE, b"\0" * 4))


def trace_digest(values) -> str:
    """SHA-256 of ``values`` packed as little-endian float64."""
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def abstract(timestep: float):
    circuit = BENCH.circuit()
    return AbstractionFlow(timestep).abstract(circuit, "out", name=circuit.name).model


class TestPinnedPythonRows:
    """The stream leg of ``test_vp_pinned_outcomes``: same cases, same table."""

    TABLE = Path(__file__).parent / "corpus" / "platform_outcomes.json"
    CPU_HZ = 20e6
    RATIOS = (1.0, 3.0, 1.0 / 3.0, 2.5, 20.0)
    DURATION = 60e-6

    @pytest.mark.parametrize("ratio", RATIOS, ids=lambda ratio: f"ratio{ratio:.3g}")
    def test_stream_runs_match_the_pinned_python_rows(self, ratio):
        table = json.loads(self.TABLE.read_text())["platforms"]
        timestep = (1.0 / self.CPU_HZ) * ratio
        model = abstract(timestep)
        # The pinned test's seeded stimulus for the python style and ratio.
        rng = np.random.default_rng(
            [ANALOG_STYLES.index("python"), self.RATIOS.index(ratio)]
        )
        stimuli = {
            "vin": SquareWave(
                period=timestep * float(rng.uniform(20.0, 60.0)),
                duty=float(rng.uniform(0.3, 0.7)),
                delay=timestep / 2.0,
            )
        }
        stream = python_stream(model, stimuli, timestep, self.DURATION)
        for name in ("threshold", "averaging"):
            platform = SmartSystemPlatform(
                cpu_clock_hz=self.CPU_HZ,
                analog_timestep=timestep,
                firmware=FIRMWARES[name],
                record_analog=True,
            )
            platform.attach_analog_stream(stream)
            result = platform.run(self.DURATION)
            pinned = table[f"python/ratio{ratio:.3g}/{name}"]
            assert list(result.fingerprint()) == pinned["fingerprint"], name
            assert trace_digest(result.analog_trace) == pinned["adc_trace"], name
            assert platform.kernel.event_count == 0


#: Analog step as a multiple of the CPU period, by relation to it.
RELATIONS = {
    "longer": (2.0, 2.5, 4.0),
    "shorter": (1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0),
    "equal": (1.0,),
}
DURATION = 20e-6


def bus_accesses(cpu_hz, timestep, firmware, stimuli, model) -> dict[float, int]:
    """Instant → instruction address of every bus access of a golden
    push-mode run.  Each access starts its own CPU wake, so ``cpu.pc`` is
    the accessing instruction's address."""
    platform = SmartSystemPlatform(
        cpu_clock_hz=cpu_hz, analog_timestep=timestep, firmware=FIRMWARES[firmware]
    )
    platform.attach_analog_python(model, stimuli)
    accesses = {}
    read, write = platform.cpu.bus_read, platform.cpu.bus_write

    def read_probe(address: int) -> int:
        accesses[platform.kernel.now] = platform.cpu.pc
        return read(address)

    def write_probe(address: int, value: int) -> None:
        accesses[platform.kernel.now] = platform.cpu.pc
        write(address, value)

    platform.cpu.bus_read, platform.cpu.bus_write = read_probe, write_probe
    platform.run(DURATION)
    return accesses


def generated_campaign(relation: str, firmware: str):
    """A seeded campaign, its CPU clock, analog step and stimuli, and the
    shared tick/CPU instant among its activation times."""
    rng = np.random.default_rng([list(RELATIONS).index(relation), list(FIRMWARES).index(firmware)])
    cpu_hz = float(rng.choice([10e6, 20e6, 25e6]))
    timestep = float(rng.choice(RELATIONS[relation])) / cpu_hz
    stimuli = {
        "vin": SquareWave(
            period=timestep * float(rng.integers(20, 60)),
            duty=float(rng.uniform(0.3, 0.7)),
            delay=timestep / 2.0,
        )
    }
    model = abstract(timestep)
    ticks = python_stream(model, stimuli, timestep, DURATION).times
    middle = [t for t in ticks if 0.2 * DURATION < t < 0.8 * DURATION]
    # A shared tick/CPU instant at which a bus access starts a CPU wake:
    # flipping the accessing instruction's word there crashes the CPU on
    # that instant.
    accesses = bus_accesses(cpu_hz, timestep, firmware, stimuli, model)
    shared = sorted(set(accesses) & set(middle))
    assert shared, (relation, firmware)
    instant = shared[int(rng.integers(len(shared)))]
    times = sorted(
        {
            instant,
            middle[int(rng.integers(len(middle)))],
            float(rng.uniform(0.2, 0.8)) * DURATION,
        }
    )
    spec = FaultCampaignSpec(
        faults=[
            ParameterDriftFault("r1", 2.0),
            AdcStuckBitFault(int(rng.integers(0, 10)), stuck_at=int(rng.integers(0, 2))),
            AdcBitFlipFault(int(rng.integers(0, 10))),
            UartCorruptionFault(int(rng.integers(1, 256))),
            MemoryBitFlipFault(address=None, bit=int(rng.integers(0, 8))),
            RegisterTransientFault(int(rng.integers(1, 32)), bit=int(rng.integers(0, 32))),
            InstructionCorruptionFault(accesses[instant]),
            OutsideRamPoke(),
        ],
        activation_times=tuple(times),
        scenarios=PlatformScenarioSpec(firmwares={firmware: FIRMWARES[firmware]}),
        seed=int(rng.integers(2**31)),
    )
    return spec, cpu_hz, timestep, stimuli, instant


def push_mode_payloads(spec, cpu_hz, timestep, stimuli) -> list[dict]:
    """The campaign's jobs through a push-mode platform sweep."""
    runs = spec.expand()
    faults = {run.fault.name: run.fault for run in runs if run.fault is not None}
    runner = PlatformSweepRunner(
        FaultableCircuitFactory(BENCH.build, faults),
        "out",
        stimuli,
        timestep=timestep,
        cpu_clock_hz=cpu_hz,
        capture_errors=True,
        progress=False,
    )
    result = runner.run(runs, DURATION, firmwares=spec.firmware_table())
    return [run.to_payload() for run in result.results]


class TestStreamAgainstPushMode:
    @pytest.mark.parametrize("relation", RELATIONS)
    def test_every_campaign_run_matches_push_mode(self, relation):
        for firmware in FIRMWARES:
            spec, cpu_hz, timestep, stimuli, _ = generated_campaign(relation, firmware)
            reference = push_mode_payloads(spec, cpu_hz, timestep, stimuli)
            crashes = [payload["crashed"] for payload in reference if payload["crashed"]]
            assert any(crash.startswith("CpuFault") for crash in crashes)
            assert any(crash.startswith("BusError") for crash in crashes)
            for workers in (1, 2):
                runner = FaultCampaignRunner(
                    BENCH.build,
                    "out",
                    stimuli,
                    timestep=timestep,
                    cpu_clock_hz=cpu_hz,
                    workers=workers,
                    trace=True,
                    progress=False,
                )
                result = runner.run(spec, DURATION)
                payloads = [run.to_payload() for run in result.results]
                assert payloads == reference, (relation, firmware, workers)
                # Golden and drift: one stream each per worker chunk.
                counters = result.telemetry.counters
                assert 2 <= counters["platform.streams"] <= 2 * workers

    @pytest.mark.parametrize("relation", RELATIONS)
    def test_a_crash_on_a_shared_instant_sees_the_tick_only_if_it_sorts_first(
        self, relation
    ):
        spec, cpu_hz, timestep, stimuli, instant = generated_campaign(relation, "threshold")
        result = FaultCampaignRunner(
            BENCH.build, "out", stimuli, timestep=timestep, cpu_clock_hz=cpu_hz, progress=False
        ).run(spec, DURATION)
        flipped, outside = spec.faults[-2:]
        outcomes = {
            scenario.fault: run
            for scenario, run in zip(result.scenarios, result.results)
            if scenario.at_time == instant
        }
        ticks = python_stream(abstract(timestep), stimuli, timestep, DURATION).times
        before = ticks.index(instant)
        # The code-word flip crashes the CPU wake at the instant.  The tick
        # there was scheduled at the previous tick and the wake at the
        # previous CPU cycle: the tick fired first only if the analog step
        # is the longer one.
        crash = outcomes[flipped]
        assert crash.crashed.startswith("CpuFault")
        assert crash.simulated_time == instant
        assert crash.analog_samples == before + (relation == "longer")
        # The failed poke crashes the injection, which fires first.
        crash = outcomes[outside]
        assert crash.crashed.startswith("BusError")
        assert crash.simulated_time == instant
        assert crash.analog_samples == before


def fails_after_5us(time: float) -> float:
    """A sensor input that turns NaN 5 us into the run."""
    return math.nan if time > 5e-6 else 1.0


class TestNonFiniteSamples:
    def test_a_nan_sample_crashes_push_and_stream_runs_alike(self):
        """Reading a NaN sample is the run's ``PlatformError``, recorded as
        its crash in push and stream mode alike, not an error that aborts
        the campaign."""
        stimuli = {"vin": fails_after_5us}
        spec = FaultCampaignSpec(
            faults=[UartCorruptionFault(0x20)],
            activation_times=(2e-6,),
            scenarios=PlatformScenarioSpec(firmwares={"threshold": FIRMWARES["threshold"]}),
        )
        reference = push_mode_payloads(spec, 20e6, 50e-9, stimuli)
        result = FaultCampaignRunner(BENCH.build, "out", stimuli, progress=False).run(
            spec, DURATION
        )
        payloads = [run.to_payload() for run in result.results]
        # The traces end in NaN, which equals nothing: compare their JSON.
        assert json.dumps(payloads) == json.dumps(reference)
        for payload in payloads:
            assert payload["crashed"].startswith("PlatformError: adc0: sample ")
            assert "is nan" in payload["crashed"]
            assert payload["simulated_time"] < DURATION
