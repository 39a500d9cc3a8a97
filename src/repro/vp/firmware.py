"""Firmware programs executed by the virtual platform's MIPS CPU.

The default program is the smart-system workload used throughout the
experiments: it polls the ADC bridge, detects threshold crossings of the
analog output and reports them over the UART, keeping a crossing counter in
RAM.  It keeps the CPU, the bus and the UART continuously busy, which is what
makes the digital side dominate the platform simulation time (paper Table
III).
"""

from __future__ import annotations

from . import adc_bridge, uart

#: The platform's memory map: the APB peripheral window and the base address
#: at which ``platform.py`` attaches each peripheral.
PERIPHERAL_BASE = 0x1000_0000
UART_BASE = PERIPHERAL_BASE + 0x0000
ADC_BASE = PERIPHERAL_BASE + 0x1000

#: The registers the firmware reads and writes, as offsets from
#: ``PERIPHERAL_BASE`` (the base register it loads once).
UART_TX_OFFSET = UART_BASE - PERIPHERAL_BASE + uart.TX_DATA
UART_STATUS_OFFSET = UART_BASE - PERIPHERAL_BASE + uart.STATUS
ADC_DATA_OFFSET = ADC_BASE - PERIPHERAL_BASE + adc_bridge.DATA
ADC_COUNT_OFFSET = ADC_BASE - PERIPHERAL_BASE + adc_bridge.SAMPLE_COUNT

#: RAM address where the firmware keeps its crossing counter.
CROSSING_COUNTER_ADDRESS = 0x0000_F000


def threshold_monitor_source(threshold_millivolts: int = 500) -> str:
    """The default workload: report analog threshold crossings over the UART.

    The program busy-polls the ADC sample counter, reads every new sample,
    compares it (signed) against ``threshold_millivolts`` and, on every
    crossing, transmits ``'H'`` or ``'L'`` and increments a counter in RAM.
    """
    return f"""# Threshold-monitor firmware for the smart-system virtual platform.
# t0: peripheral base     t1: scratch / sample      t2: threshold (mV)
# t3: previous state      t4: current state         t5: scratch
# s0: last ADC sample id  s1: crossing counter      s2: counter address
        .text
main:
        lui   $t0, 0x1000            # peripheral window base (0x1000_0000)
        li    $t2, {threshold_millivolts}
        li    $t3, 0                 # previous state: below threshold
        li    $s0, 0                 # last observed sample id
        li    $s1, 0                 # crossing counter
        li    $s2, {CROSSING_COUNTER_ADDRESS:#x}
        sw    $s1, 0($s2)

poll:
        lw    $t5, {ADC_COUNT_OFFSET:#x}($t0)   # ADC sample counter
        beq   $t5, $s0, poll         # wait for a new analog sample
        move  $s0, $t5

        lw    $t1, {ADC_DATA_OFFSET:#x}($t0)    # sample in signed millivolts
        slt   $t4, $t1, $t2          # t4 = 1 when sample < threshold
        beq   $t4, $t3, poll         # no threshold crossing
        move  $t3, $t4

        addiu $s1, $s1, 1            # count the crossing
        sw    $s1, 0($s2)

        beq   $t4, $zero, rising
        li    $a0, 0x4C              # 'L' : fell below the threshold
        j     send
rising:
        li    $a0, 0x48              # 'H' : rose above the threshold
send:
wait_tx:
        lw    $t5, {UART_STATUS_OFFSET:#x}($t0) # UART status
        andi  $t5, $t5, 1            # TX-ready bit
        beq   $t5, $zero, wait_tx
        sw    $a0, {UART_TX_OFFSET:#x}($t0)     # transmit the marker
        j     poll
"""


def averaging_monitor_source(window_shift: int = 2) -> str:
    """An alternative workload: stream a moving average of the ADC samples.

    Every new sample is added to an accumulator; every ``2**window_shift``
    samples the average is stored to RAM and its low byte is transmitted.
    Exercises the multiplier-free arithmetic path (shifts, adds) of the core.
    """
    window = 1 << window_shift
    return f"""# Moving-average firmware for the smart-system virtual platform.
        .text
main:
        lui   $t0, 0x1000            # peripheral window base
        li    $s0, 0                 # last observed sample id
        li    $s1, 0                 # accumulator
        li    $s2, 0                 # samples in the window
        li    $s3, {CROSSING_COUNTER_ADDRESS:#x}

poll:
        lw    $t5, {ADC_COUNT_OFFSET:#x}($t0)
        beq   $t5, $s0, poll
        move  $s0, $t5

        lw    $t1, {ADC_DATA_OFFSET:#x}($t0)
        addu  $s1, $s1, $t1          # accumulate
        addiu $s2, $s2, 1
        slti  $t4, $s2, {window}
        bne   $t4, $zero, poll       # window not full yet

        sra   $t6, $s1, {window_shift}   # average = accumulator / window
        sw    $t6, 0($s3)
        andi  $a0, $t6, 0xFF
wait_tx:
        lw    $t5, {UART_STATUS_OFFSET:#x}($t0)
        andi  $t5, $t5, 1
        beq   $t5, $zero, wait_tx
        sw    $a0, {UART_TX_OFFSET:#x}($t0)
        li    $s1, 0                 # restart the window
        li    $s2, 0
        j     poll
"""


def default_firmware() -> str:
    """The firmware used by the Table III experiments."""
    return threshold_monitor_source()


#: A firmware-style compute/memory/branch loop for the ISS benchmarks: ALU
#: ops, a store and a load of one RAM slot and a backward branch, without
#: peripheral polling, so it measures the ISS itself.  It is not the
#: threshold monitor's mix: that firmware polls the ADC and only stores its
#: crossing counter, and no firmware here loads a slot it just stored.
FIRMWARE_STYLE_LOOP = """
        li    $t0, 0
        li    $t1, 0x2000
        li    $t3, 0
loop:   addiu $t0, $t0, 1
        andi  $t2, $t0, 0xFF
        sll   $t4, $t2, 2
        addu  $t5, $t4, $t2
        sw    $t5, 0($t1)
        lw    $t6, 0($t1)
        subu  $t7, $t6, $t2
        bne   $t0, $t3, loop
"""
