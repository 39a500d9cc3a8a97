"""Module base class and clock generator for the discrete-event kernel."""

from __future__ import annotations

from heapq import heappush
from typing import Callable

from ...errors import SimulationError
from .kernel import Event, Kernel, ThreadProcess
from .signal import Signal
from .simtime import quantize


class Module:
    """Base class for hierarchical discrete-event components (like ``sc_module``).

    Subclasses register processes with :meth:`add_thread` (generator
    coroutine, like ``SC_THREAD``), and create communication objects with
    :meth:`signal` and :meth:`event`.
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
    timestep inside the discrete-event platform.  Ticks fire on the absolute
    grid ``origin + k * period``, where ``origin`` is the creation time plus
    the start delay, so millions of ticks do not drift from the nominal
    timestep.

    Tickers share heap entries (see :class:`~.kernel.Kernel`).  At every
    push, the first one included, a ticker joins the entry pushed last only
    if no timed push happened since, that entry has not been popped, and
    the ticker's next grid time and scheduling time equal the entry's.  The
    members of an entry fire in push order, which is the order separate
    entries would get.  A ticker leaves its entry at the exact point where
    it would have pushed alone: when its callback schedules a timed event,
    or when its next grid time differs.  Tickers with different origins
    merge once their grid times meet.
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
        first_delay = period if start_delay is None else start_delay
        if first_delay < 0.0:
            raise SimulationError("cannot schedule an action in the past")
        self.period = period
        self.callback = callback
        self.tick_count = 0
        now = kernel.now
        self._grid_origin = now + first_delay
        _SharedTick.place(kernel, self, quantize(now + first_delay), now)


class _SharedTick:
    """One heap entry firing the periodic tickers that share a grid point."""

    __slots__ = ("kernel", "members", "time", "scheduled", "sequence", "action")

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.action = self.fire

    @staticmethod
    def place(kernel: Kernel, ticker: PeriodicTicker, time: float, scheduled: float) -> None:
        """Join ``ticker`` to the open entry if the sharing rule allows, else push one."""
        entry = kernel._open
        if (
            entry is not None
            and entry.sequence == kernel._sequence
            and entry.time == time
            and entry.scheduled == scheduled
        ):
            entry.members.append(ticker)
        else:
            _SharedTick(kernel).push([ticker], time, scheduled)

    def push(self, members: list[PeriodicTicker], time: float, scheduled: float) -> None:
        """Push this entry for ``members`` and make it the kernel's open entry."""
        kernel = self.kernel
        sequence = kernel._sequence + 1
        kernel._sequence = sequence
        self.members = members
        self.time = time
        self.scheduled = scheduled
        self.sequence = sequence
        heappush(kernel._timed, (time, scheduled, sequence, self.action))
        kernel._open = self

    def fire(self) -> None:
        """Tick every member in push order; each then joins or pushes its next entry."""
        kernel = self.kernel
        now = kernel.now
        # The first member that joins no open entry re-pushes this one.
        spare = self
        count = origin = period = time = None
        for ticker in self.members:
            tick = ticker.tick_count + 1
            ticker.tick_count = tick
            ticker.callback(now)
            # Members on one grid at one count share their next time.  The
            # clamp of schedule_abs is not needed: quantize is monotonic, so
            # the next grid time never precedes now, this tick's grid time.
            if tick != count or ticker._grid_origin != origin or ticker.period != period:
                count, origin, period = tick, ticker._grid_origin, ticker.period
                time = quantize(origin + tick * period)
            # place(), inlined: this runs once per member and grid point.
            entry = kernel._open
            if (
                entry is not None
                and entry.sequence == kernel._sequence
                and entry.time == time
                and entry.scheduled == now
            ):
                entry.members.append(ticker)
            else:
                (spare or _SharedTick(kernel)).push([ticker], time, now)
                spare = None
