"""Signals: delta-delayed communication channels (like ``sc_signal``)."""

from __future__ import annotations

from typing import Generic, TypeVar

from .kernel import Kernel

T = TypeVar("T")


class Signal(Generic[T]):
    """A value holder whose writes become visible one delta cycle later.

    Reading returns the *current* value; writing stores a *next* value and
    requests an update, exactly like ``sc_signal``.  A process that reads
    what another wrote in this delta runs as a delta action appended after
    the write.  Each update that changes the value counts one kernel event.
    """

    __slots__ = ("kernel", "name", "_current", "_next", "_update_pending")

    def __init__(self, kernel: Kernel, initial: T, name: str = "") -> None:
        self.kernel = kernel
        self.name = name or f"signal_{id(self):x}"
        self._current: T = initial
        self._next: T = initial
        self._update_pending = False

    # -- access -------------------------------------------------------------------
    def read(self) -> T:
        """Return the current value."""
        return self._current

    def write(self, value: T) -> None:
        """Schedule ``value`` to become the current value in the next delta."""
        self._next = value
        if not self._update_pending:
            self._update_pending = True
            self.kernel._update_requests.append(self)

    @property
    def value(self) -> T:
        """Alias for :meth:`read` (convenient in expressions)."""
        return self._current

    # -- update phase ------------------------------------------------------------------
    def apply(self) -> None:
        """Apply the pending write (called by the kernel's update phase)."""
        self._update_pending = False
        if self._next != self._current:
            self._current = self._next
            self.kernel.event_count += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Signal({self.name!r}, value={self._current!r})"
