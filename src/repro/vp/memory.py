"""Byte-addressable RAM for the virtual platform (code + data memory)."""

from __future__ import annotations

from typing import Callable

from ..errors import BusError


class Memory:
    """A little-endian RAM of fixed size, mapped at address 0.

    The CPU fetches instructions and performs data accesses here; the
    ``load_image`` helper installs an assembled firmware image.

    Writes can be observed through :meth:`add_write_watcher`; the CPU uses
    this to invalidate its predecoded-instruction cache when anything else
    (firmware reloads, tests poking at code, fault injectors, ``clear``)
    touches RAM.  Watchers are always notified with the *word-aligned* span
    covering the write — sub-word writes report the whole containing word —
    so consumers that track word-granular state (the decode cache) never
    have to re-derive the alignment themselves.  The CPU's own store fast
    path bypasses these watchers and maintains its cache invalidation
    directly — watchers see every *external* write.

    :meth:`poke` and :meth:`peek` are the host-side mutation/inspection API
    for raw byte strings; ``poke`` notifies watchers unless the caller
    explicitly opts out with ``notify=False`` — bypassing watchers on a write
    into code leaves stale decoded instructions behind, which is only ever
    correct for observers that want to model exactly that staleness.
    """

    def __init__(self, size: int = 64 * 1024) -> None:
        if size <= 0 or size % 4 != 0:
            raise ValueError("memory size must be a positive multiple of 4")
        self.size = size
        self._data = bytearray(size)
        self._write_watchers: list[Callable[[int, int], None]] = []

    # -- write observation -------------------------------------------------------------
    def add_write_watcher(self, watcher: Callable[[int, int], None]) -> None:
        """Call ``watcher(address, width)`` after every write through this API.

        ``(address, width)`` is the word-aligned span covering the written
        bytes: ``address`` is rounded down to a word boundary and ``width``
        rounded up, clamped to the RAM extent.
        """
        self._write_watchers.append(watcher)

    def _notify(self, address: int, width: int) -> None:
        """Notify watchers with the word-aligned covering span of a write."""
        start = address & ~0x3
        span = ((address + width + 3) & ~0x3) - start
        if start + span > self.size:
            span = self.size - start
        for watcher in self._write_watchers:
            watcher(start, span)

    # -- address checking --------------------------------------------------------------
    def _check(self, address: int, width: int) -> None:
        if address < 0 or address + width > self.size:
            raise BusError(
                f"memory access at {address:#010x} (width {width}) is outside "
                f"the {self.size}-byte RAM at 0x00000000"
            )

    # -- word access ----------------------------------------------------------------------
    def read_word(self, address: int) -> int:
        """Read a 32-bit little-endian word."""
        self._check(address, 4)
        return int.from_bytes(self._data[address : address + 4], "little")

    def write_word(self, address: int, value: int) -> None:
        """Write a 32-bit little-endian word."""
        self._check(address, 4)
        self._data[address : address + 4] = int(value & 0xFFFFFFFF).to_bytes(4, "little")
        if self._write_watchers:
            self._notify(address, 4)

    # -- byte access -----------------------------------------------------------------------
    def read_byte(self, address: int) -> int:
        """Read one byte."""
        self._check(address, 1)
        return self._data[address]

    def write_byte(self, address: int, value: int) -> None:
        """Write one byte."""
        self._check(address, 1)
        self._data[address] = value & 0xFF
        if self._write_watchers:
            self._notify(address, 1)

    # -- host-side mutation and inspection ----------------------------------------------
    def peek(self, address: int, width: int = 1) -> bytes:
        """Read ``width`` raw bytes."""
        self._check(address, width)
        return bytes(self._data[address : address + width])

    def poke(
        self,
        address: int,
        data: "bytes | bytearray | int",
        notify: bool = True,
    ) -> None:
        """Write raw bytes from the host side (fault injectors, debuggers).

        ``data`` may be a single byte value or a bytes-like object.  Watchers
        are notified (word-aligned, like every write) unless ``notify=False``
        is passed explicitly — only do that when stale downstream caches (the
        CPU's decoded instructions) are the *intended* semantics.
        """
        if isinstance(data, int):
            if not 0 <= data <= 0xFF:
                raise ValueError(
                    f"poke with an int writes one byte; {data:#x} does not fit "
                    f"(pass value.to_bytes(...) for wider writes)"
                )
            data = bytes((data,))
        if not data:
            return
        self._check(address, len(data))
        self._data[address : address + len(data)] = data
        if notify and self._write_watchers:
            self._notify(address, len(data))

    def flip_bit(self, address: int, bit: int, notify: bool = True) -> int:
        """Flip one bit of the byte at ``address``; returns the new byte value.

        The single-event-upset primitive of the fault-injection subsystem.
        """
        if not 0 <= bit <= 7:
            raise ValueError("bit index must be in 0..7 (per-byte flip)")
        self._check(address, 1)
        value = self._data[address] ^ (1 << bit)
        self._data[address] = value
        if notify and self._write_watchers:
            self._notify(address, 1)
        return value

    # -- bulk helpers ------------------------------------------------------------------------
    def load_image(self, image: bytes, address: int = 0) -> None:
        """Copy a binary image into memory at ``address``."""
        self._check(address, len(image))
        self._data[address : address + len(image)] = image
        if self._write_watchers and image:
            self._notify(address, len(image))

    def clear(self) -> None:
        """Zero the whole memory."""
        self._data = bytearray(self.size)
        if self._write_watchers:
            self._notify(0, self.size)
