"""UART peripheral of the virtual platform.

A minimal register-level UART: the firmware polls the status register and
writes characters to the transmit register; transmitted bytes are collected so
that tests and examples can observe the software's behaviour.  Transmission
is untimed: a written byte is logged at once, and the status register always
reports the transmitter ready.  ``BAUD_DIV`` is a plain read/write register
for firmware that programs it.
"""

from __future__ import annotations

from .apb import ApbPeripheral

#: Register offsets.
TX_DATA = 0x00
STATUS = 0x04
RX_DATA = 0x08
BAUD_DIV = 0x0C

#: STATUS bits.
STATUS_TX_READY = 0x1
STATUS_RX_VALID = 0x2


class Uart(ApbPeripheral):
    """Register-level UART with a transmit log and an optional receive queue."""

    def __init__(self, name: str = "uart0") -> None:
        self.name = name
        self.transmitted: list[int] = []
        self._receive_queue: list[int] = []
        self.baud_divisor = 0

    # -- register interface ------------------------------------------------------------------
    def read_register(self, offset: int) -> int:
        if offset == STATUS:
            status = STATUS_TX_READY
            if self._receive_queue:
                status |= STATUS_RX_VALID
            return status
        if offset == RX_DATA:
            if self._receive_queue:
                return self._receive_queue.pop(0)
            return 0
        if offset == TX_DATA:
            return self.transmitted[-1] if self.transmitted else 0
        if offset == BAUD_DIV:
            return self.baud_divisor
        return 0

    def write_register(self, offset: int, value: int) -> None:
        if offset == TX_DATA:
            self.transmitted.append(value & 0xFF)
        elif offset == BAUD_DIV:
            self.baud_divisor = value & 0xFFFF

    # -- host-side helpers ----------------------------------------------------------------------
    def receive(self, data: bytes | str) -> None:
        """Queue bytes for the firmware to read from RX_DATA."""
        if isinstance(data, str):
            data = data.encode("ascii")
        self._receive_queue.extend(data)

    def output_bytes(self) -> bytes:
        """Everything the firmware transmitted so far."""
        return bytes(self.transmitted)

    def output_text(self) -> str:
        """Transmitted bytes decoded as ASCII (errors replaced)."""
        return self.output_bytes().decode("ascii", errors="replace")
