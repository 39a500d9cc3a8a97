"""Tests for the peripherals, the APB bus and the complete virtual platform."""

from __future__ import annotations

import pytest

from repro.core import abstract_circuit
from repro.errors import BusError, PlatformError
from repro.sim import SquareWave
from repro.vp import (
    ADC_BASE,
    AdcBridge,
    ApbBus,
    SmartSystemPlatform,
    UART_BASE,
    Uart,
    averaging_monitor_source,
    threshold_monitor_source,
)
from repro.vp.adc_bridge import DATA, SAMPLE_COUNT, SCALE, STATUS, STATUS_VALID
from repro.vp.uart import STATUS_TX_READY, TX_DATA
from repro.vp.uart import STATUS as UART_STATUS

DT = 50e-9


class TestPeripherals:
    def test_uart_transmit_log(self):
        uart = Uart()
        assert uart.read_register(UART_STATUS) & STATUS_TX_READY
        uart.write_register(TX_DATA, ord("H"))
        uart.write_register(TX_DATA, ord("i"))
        assert uart.output_text() == "Hi"

    def test_uart_receive_queue(self):
        uart = Uart()
        uart.receive("ok")
        assert uart.read_register(UART_STATUS) & 0x2
        assert uart.read_register(0x08) == ord("o")
        assert uart.read_register(0x08) == ord("k")
        assert not uart.read_register(UART_STATUS) & 0x2

    def test_adc_bridge_scaling_and_status(self):
        adc = AdcBridge()
        assert not adc.read_register(STATUS) & STATUS_VALID
        adc.push_sample(0.75)
        assert adc.read_register(STATUS) & STATUS_VALID
        assert adc.read_register(DATA) == 750
        assert adc.read_register(SAMPLE_COUNT) == 1
        adc.push_sample(-0.5)
        assert adc.read_register(DATA) == (-500) & 0xFFFFFFFF

    def test_adc_scale_reads_back_what_was_written(self):
        adc = AdcBridge()
        misread = []
        for value in range(1, 200_000):
            adc.write_register(SCALE, value)
            if adc.read_register(SCALE) != value:
                misread.append(value)
        assert misread == []

    def test_apb_decoding_and_statistics(self):
        bus = ApbBus()
        uart = Uart()
        adc = AdcBridge()
        bus.attach("uart0", UART_BASE, uart)
        bus.attach("adc0", ADC_BASE, adc)
        bus.write(UART_BASE + TX_DATA, ord("x"))
        adc.push_sample(1.0)
        assert bus.read(ADC_BASE + DATA) == 1000
        assert bus.transaction_count == 2
        assert bus.cycles == 2 * ApbBus.CYCLES_PER_TRANSFER
        assert set(bus.peripherals()) == {"uart0", "adc0"}

    def test_apb_errors(self):
        bus = ApbBus()
        bus.attach("uart0", UART_BASE, Uart())
        with pytest.raises(BusError):
            bus.read(UART_BASE + 0x10_0000)
        with pytest.raises(BusError):
            bus.attach("overlap", UART_BASE + 4, AdcBridge())


@pytest.fixture(scope="module")
def rc1_compiled():
    from repro.circuits import build_rc_filter

    return abstract_circuit(build_rc_filter(1), "out", DT)


class TestSmartSystemPlatform:
    def test_run_requires_analog(self):
        platform = SmartSystemPlatform()
        with pytest.raises(PlatformError):
            platform.run(1e-6)

    def test_double_attach_rejected(self, rc1_compiled):
        platform = SmartSystemPlatform()
        stimuli = {"vin": SquareWave()}
        platform.attach_analog_python(rc1_compiled, stimuli)
        with pytest.raises(PlatformError):
            platform.attach_analog_python(rc1_compiled, stimuli)

    def test_threshold_firmware_reports_crossings(self, rc1_compiled):
        # A fast square wave so that several threshold crossings happen in a
        # short simulated time window.
        # With a 40 us square wave and tau = 125 us the output swings roughly
        # between 70 mV and 150 mV, so a 100 mV threshold is crossed twice per
        # period.
        stimuli = {"vin": SquareWave(period=40e-6)}
        platform = SmartSystemPlatform(firmware=threshold_monitor_source(100))
        platform.attach_analog_python(rc1_compiled, stimuli)
        result = platform.run(200e-6)
        assert result.analog_samples == 4000
        assert result.instructions > 1000
        assert result.crossings_reported >= 2
        assert set(result.uart_output) <= {"H", "L"}
        assert result.uart_output.count("H") >= 1

    def test_all_integration_styles_agree_on_software_behaviour(self, rc1_compiled):
        from repro.circuits import build_rc_filter

        stimuli = {"vin": SquareWave(period=40e-6)}
        duration = 120e-6
        observed = {}
        for style in ("python", "de", "tdf", "eln"):
            platform = SmartSystemPlatform()
            if style == "python":
                platform.attach_analog_python(rc1_compiled, stimuli)
            elif style == "de":
                platform.attach_analog_de(rc1_compiled, stimuli)
            elif style == "tdf":
                platform.attach_analog_tdf(rc1_compiled, stimuli)
            else:
                platform.attach_analog_eln(build_rc_filter(1), stimuli, "V(out)")
            result = platform.run(duration)
            observed[style] = (result.uart_output, result.crossings_reported)
        assert len(set(observed.values())) == 1, observed

    def test_cosim_style_runs(self, rc1_compiled):
        from repro.circuits import build_rc_filter

        stimuli = {"vin": SquareWave(period=40e-6)}
        platform = SmartSystemPlatform()
        platform.attach_analog_cosim(build_rc_filter(1), stimuli, "V(out)")
        result = platform.run(60e-6)
        assert result.analog_style == "verilog_ams_cosim"
        assert result.analog_samples > 0

    def test_averaging_firmware_streams_bytes(self, rc1_compiled):
        platform = SmartSystemPlatform(firmware=averaging_monitor_source())
        platform.attach_analog_python(rc1_compiled, {"vin": SquareWave(period=40e-6)})
        result = platform.run(100e-6)
        assert len(result.uart_output) > 5

    @pytest.mark.parametrize("style", ["python", "de", "tdf", "eln", "cosim"])
    def test_block_stepping_fingerprint_identical_per_style(self, rc1_compiled, style):
        """Block-stepped CPU scheduling is timing-equivalent to per-tick.

        For every analog integration style the software-visible outcome
        (:meth:`PlatformRunResult.fingerprint`) *and* the recorded ADC sample
        stream must be bit-identical whether the CPU advances one instruction
        per kernel event or in blocks — including an odd block size that
        never divides the peripheral-access pattern evenly.
        """
        from repro.circuits import build_rc_filter

        duration = 60e-6 if style == "cosim" else 120e-6
        outcomes = []
        for block in (1, 7, 256, 4096):
            stimuli = {"vin": SquareWave(period=40e-6)}
            platform = SmartSystemPlatform(
                firmware=threshold_monitor_source(100),
                cpu_block_cycles=block,
                record_analog=True,
            )
            if style in ("python", "de", "tdf"):
                platform.attach_analog(style, stimuli, model=rc1_compiled)
            else:
                platform.attach_analog(
                    style, stimuli, circuit=build_rc_filter(1), output="V(out)"
                )
            result = platform.run(duration)
            outcomes.append((result.fingerprint(), tuple(result.analog_trace)))
        assert outcomes[1:] == outcomes[:1] * 3

    def test_cpu_block_cycles_must_be_positive(self):
        with pytest.raises(ValueError):
            SmartSystemPlatform(cpu_block_cycles=0)

    def test_cpu_clock_controls_instruction_count(self, rc1_compiled):
        stimuli = {"vin": SquareWave(period=40e-6)}
        fast = SmartSystemPlatform(cpu_clock_hz=20e6)
        fast.attach_analog_python(rc1_compiled, stimuli)
        slow = SmartSystemPlatform(cpu_clock_hz=5e6)
        slow.attach_analog_python(rc1_compiled, stimuli)
        duration = 50e-6
        assert fast.run(duration).instructions > slow.run(duration).instructions
