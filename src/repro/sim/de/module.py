"""Module base class and periodic ticker for the discrete-event kernel."""

from __future__ import annotations

from heapq import heappush
from typing import Callable

from ...errors import SimulationError
from .kernel import Kernel
from .signal import Signal
from .simtime import quantize


class Module:
    """Base class for named discrete-event components (like ``sc_module``).

    A module creates the signals it owns with :meth:`signal` and reads the
    simulated time as :attr:`now`.  Its processes are the kernel's two
    kinds: timed actions (a :class:`PeriodicTicker`, ``kernel.schedule``)
    and delta actions appended to ``kernel._delta_pending``.
    """

    def __init__(self, kernel: Kernel, name: str) -> None:
        self.kernel = kernel
        self.name = name

    # -- construction helpers ----------------------------------------------------------
    def signal(self, initial, name: str = "") -> Signal:
        """Create a signal owned by this module."""
        return Signal(self.kernel, initial, name=f"{self.name}.{name or 'signal'}")

    # -- time helpers --------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.kernel.now

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.name!r})"


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
