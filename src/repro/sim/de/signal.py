"""Signals: delta-delayed communication channels (like ``sc_signal``)."""

from __future__ import annotations

from typing import Generic, TypeVar

from .kernel import Event, Kernel, SignalUpdate

T = TypeVar("T")


class Signal(Generic[T], SignalUpdate):
    """A value holder whose writes become visible one delta cycle later.

    Reading returns the *current* value; writing stores a *next* value and
    requests an update, exactly like ``sc_signal``.  Processes can be made
    sensitive to :attr:`changed`, which is notified whenever an update
    actually modifies the value.
    """

    __slots__ = ("kernel", "name", "_current", "_next", "_update_pending", "changed")

    def __init__(self, kernel: Kernel, initial: T, name: str = "") -> None:
        self.kernel = kernel
        self.name = name or f"signal_{id(self):x}"
        self._current: T = initial
        self._next: T = initial
        self._update_pending = False
        self.changed = Event(kernel, f"{self.name}.changed")

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
            changed = self.changed
            if changed._waiting_methods or changed._waiting_threads:
                self.kernel._trigger_event(changed)
            else:
                # Nothing waits: the trigger would only count the event.
                self.kernel.event_count += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Signal({self.name!r}, value={self._current!r})"
