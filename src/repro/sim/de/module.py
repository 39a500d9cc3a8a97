"""Module base class and clock generator for the discrete-event kernel."""

from __future__ import annotations

from typing import Callable, Iterable

from .kernel import Event, Kernel, ThreadProcess
from .signal import Signal


class Module:
    """Base class for hierarchical discrete-event components (like ``sc_module``).

    Subclasses register processes with :meth:`add_method` (static sensitivity,
    like ``SC_METHOD``) or :meth:`add_thread` (generator coroutine, like
    ``SC_THREAD``), and create communication objects with :meth:`signal` and
    :meth:`event`.
    """

    def __init__(self, kernel: Kernel, name: str) -> None:
        self.kernel = kernel
        self.name = name

    # -- construction helpers ----------------------------------------------------------
    def signal(self, initial, name: str = "") -> Signal:
        """Create a signal owned by this module."""
        return Signal(self.kernel, initial, name=f"{self.name}.{name or 'signal'}")

    def event(self, name: str = "") -> Event:
        """Create an event owned by this module."""
        return Event(self.kernel, name=f"{self.name}.{name or 'event'}")

    def add_method(
        self, callback: Callable[[], None], sensitive: Iterable[Event] = ()
    ) -> None:
        """Register a method process with a static sensitivity list."""
        for event in sensitive:
            event.add_static_method(callback)

    def add_thread(self, generator_function: Callable[[], "object"]) -> ThreadProcess:
        """Register and start a thread process from a generator function."""
        return self.kernel.spawn_thread(
            generator_function(), name=f"{self.name}.{generator_function.__name__}"
        )

    # -- time helpers --------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.kernel.now

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.name!r})"


class Clock(Module):
    """A periodic boolean clock signal (like ``sc_clock``)."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        period: float,
        duty_cycle: float = 0.5,
        start_high: bool = True,
    ) -> None:
        super().__init__(kernel, name)
        if period <= 0.0:
            raise ValueError("clock period must be positive")
        if not 0.0 < duty_cycle < 1.0:
            raise ValueError("duty cycle must be within (0, 1)")
        self.period = period
        self.duty_cycle = duty_cycle
        self.out = self.signal(start_high, "out")
        self.posedge = self.event("posedge")
        self.negedge = self.event("negedge")
        self._start_high = start_high
        self.cycle_count = 0
        self.add_thread(self._drive)

    def _drive(self):
        high_time = self.period * self.duty_cycle
        low_time = self.period - high_time
        value = self._start_high
        while True:
            self.out.write(value)
            if value:
                self.posedge.notify()
                self.cycle_count += 1
                yield high_time
            else:
                self.negedge.notify()
                yield low_time
            value = not value


class PeriodicTicker(Module):
    """Invokes a callback at a fixed period (a lightweight ``SC_METHOD`` timer).

    This is the mechanism used to step analog models that execute at a fixed
    timestep inside the discrete-event platform.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        period: float,
        callback: Callable[[float], None],
        start_delay: float | None = None,
    ) -> None:
        super().__init__(kernel, name)
        if period <= 0.0:
            raise ValueError("ticker period must be positive")
        self.period = period
        self.callback = callback
        self.tick_count = 0
        self._first_delay = period if start_delay is None else start_delay
        # Ticks fire on the absolute grid (origin + first + k*period) so that
        # millions of ticks do not drift away from the nominal timestep.
        self._grid_origin = kernel.now + self._first_delay
        self.kernel.schedule(self._first_delay, self._tick)

    def _tick(self) -> None:
        self.tick_count += 1
        kernel = self.kernel
        self.callback(kernel.now)
        kernel.schedule_abs(
            self._grid_origin + self.tick_count * self.period, self._tick, kernel.now
        )
